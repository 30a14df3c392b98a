import pathlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import time_limit
from nilnov import (GroupRing, LexOrder, MultiChar, NovContext, NovSeries, QQ,
                    QuotientMap, Trunc, expand, format_series, frac_invert,
                    nov_invert, nov_mul, parse_pc, parse_presentation, ring_mul,
                    series_from_elt)
from nilnov.errors import (CertificateFailure, IncompatibleCharacter, MismatchedCharacter,
                           MismatchedGroup, NilnovError, NoStrictMinimum, ParseError,
                           TruncationInsufficient, UnsupportedFraction)
from nilnov.charorder import parse_mchar
from nilnov.fracparse import parse_fraction_expr
from nilnov.groupring import RingElt, RingOps, read_expr
from nilnov import novikov
from nilnov.iterfrac import Node, nodes
from nilnov.novikov import (_product_below, beyond_frontier, minimal_term,
                            truncate_elt, widened_context)
from nilnov.presentations import nilpotent_quotient

DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"
TEST_DATA = pathlib.Path(__file__).parent / "data"


def reversed_levels(order, signs):
    """A copy of `order` reversed on the levels whose sign entry is -1."""
    rev = LexOrder(order.group)
    rev.rows = [[[s * v for v in row] for row in order.rows[i]] for i, s in enumerate(signs)]
    return rev


def in_box(ctx, elt):
    return {g: cf for g, cf in elt.terms.items() if ctx.trunc.retains(ctx.deg(g))}


class TestNovMul:
    def test_telescoping(self, zgroup):
        R = GroupRing(zgroup, QQ)
        chi = MultiChar(zgroup, [[1]])
        ctx = NovContext(chi, Trunc([5], 10))
        geo = R.from_terms(((zgroup.pow(zgroup.generator(0), k), 1) for k in range(5)))
        prod = nov_mul(series_from_elt(ctx, geo), series_from_elt(ctx, R.parse("1 - t")))
        assert in_box(ctx, prod.body) == {(): Fraction(1)}

    def test_unit_law(self, heis):
        rng = random.Random(2)
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        ctx = NovContext(chi, Trunc([4, 4], 10))
        one = series_from_elt(ctx, R.one())
        for _ in range(30):
            g = heis.collect([(rng.randrange(3), rng.randint(-2, 2)) for _ in range(2)])
            x = series_from_elt(ctx, R.monomial(rng.randint(1, 5), g))
            assert nov_mul(x, one).body == x.body

    def test_central_factor_commutes(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        ctx = NovContext(chi, Trunc([4, 4], 10))
        x = series_from_elt(ctx, R.parse("1 + a"))
        y = series_from_elt(ctx, R.parse("1 + c"))
        assert nov_mul(x, y).body == nov_mul(y, x).body
        assert nov_mul(x, y).body == ring_mul(R.parse("1 + a"), R.parse("1 + c"))

    def test_mismatched_character(self, zgroup):
        R = GroupRing(zgroup, QQ)
        c1 = NovContext(MultiChar(zgroup, [[1]]), Trunc([5], 10))
        c2 = NovContext(MultiChar(zgroup, [[2]]), Trunc([5], 10))
        with pytest.raises(MismatchedCharacter):
            nov_mul(series_from_elt(c1, R.one()), series_from_elt(c2, R.one()))

    def test_frontier_length_must_match_levels(self, heis):
        chi = MultiChar(heis, [[1, 0], [1]])
        with pytest.raises(MismatchedCharacter, match="frontier has 1 entries"):
            NovContext(chi, Trunc([3], 12))

    def test_matches_truncated_ring_mul(self, heis):
        # seeded H3 elements and free words through parafree's class-1 and
        # class-2 quotients: the product of the two truncated bodies,
        # truncated to the coarser of the two truncations, frontier and
        # m_max alike
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q1, q2 = nilpotent_quotient(P, 1), nilpotent_quotient(P, 2)
        cases = [(heis, None, [[1, 1], [1]], (3, 5), (4, 4)),
                 (heis, None, [[1, -2], [3]], (2, 5), (3, 3)),
                 (P.free_group, q1, [[Fraction(1, 2), Fraction(-3, 2)]], (2,), (3,)),
                 (P.free_group, q2, [[0, 1], [1]], (3, 2), (2, 3))]
        for G, q, values, f1, f2 in cases:
            project = q and q.apply_word
            chi = MultiChar(q.target if q else G, values)
            c1, c2 = NovContext(chi, Trunc(f1, 12), project), NovContext(chi, Trunc(f2, 9), project)
            R = GroupRing(G, QQ)
            rng = random.Random(str((values, f1)))
            word = rand_word(rng, G)
            for i in range(20):
                x = rand_ring_elt(rng, R, word, rng.randint(1, 6), fractional=i % 2 == 1)
                y = rand_ring_elt(rng, R, word, rng.randint(1, 6))
                x, y = series_from_elt(c1, x), series_from_elt(c2, y)
                prod = nov_mul(x, y)
                assert prod.ctx.trunc.frontier == tuple(map(min, f1, f2))
                assert prod.ctx.trunc.m_max == 9
                assert prod.body == truncate_elt(prod.ctx, ring_mul(x.body, y.body)), (x, y)

    def test_one_quotient_map_is_compatible(self):
        # each access to q.apply_word makes a new bound method; two contexts
        # built from it measure alike, and one built from another map of
        # the same group does not share it
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 1)
        chi = MultiChar(q.target, [[1, 1]])
        R = GroupRing(P.free_group, QQ)
        x = series_from_elt(NovContext(chi, Trunc([3], 8), q.apply_word), R.parse("1 + b"))
        y = series_from_elt(NovContext(chi, Trunc([3], 8), q.apply_word), R.parse("1 - b"))
        assert nov_mul(x, y).body == R.parse("1 - b^2")
        other = QuotientMap(P, q.target, q.images)
        z = series_from_elt(NovContext(chi, Trunc([3], 8), other.apply_word), R.parse("1 - b"))
        with pytest.raises(MismatchedCharacter):
            nov_mul(x, z)


def _fpg_files():
    return sorted(DATA.glob("*.fpg")) + sorted(TEST_DATA.glob("*.fpg"))


class TestLetterDegrees:
    """Over a one-level quotient the degree of a free word is the sum of its
    letters' degrees, each letter projected once per context; with more
    levels every word is projected."""

    def test_one_level_degrees_read_off_letters(self):
        rng = random.Random(28)
        parsed = 0
        for path in _fpg_files():
            try:
                P = parse_presentation(path.read_text())
            except ParseError:
                assert path.name == "dup_gens.fpg"
                continue
            parsed += 1
            q = nilpotent_quotient(P, 1)
            k = len(q.target.level_gens[0])
            F = P.free_group
            for values in ([rng.randint(-3, 3) or 1 for _ in range(k)],
                           [rng.choice((Fraction(1, 2), Fraction(-3, 2), 2)) for _ in range(k)],
                           [rng.choice((0, Fraction(1, 2), -1)) for _ in range(k)]):
                chi = MultiChar(q.target, [values])
                projected = []
                ctx = NovContext(chi, Trunc([3], 8),
                                 lambda w: projected.append(w) or q.apply_word(w))
                wider = ctx.with_trunc(Trunc([5], 8))
                words = [F.collect([(rng.randrange(F.ngens), rng.choice((-3, -2, -1, 1, 2, 3)))
                                    for _ in range(rng.randint(0, 8))]) for _ in range(40)]
                for i, w in enumerate(words):
                    d = (ctx if i % 2 else wider).deg(w)
                    expected = chi.deg(q.apply_word(w))
                    assert d == expected and hash(d) == hash(expected), (path.name, w)
                    assert novikov.format_degree(d) == novikov.format_degree(expected)
                # one projection per letter, shared by the widened context
                assert len(projected) == len(set(projected)) <= F.ngens
                assert all(len(w) == 1 and w[0][1] == 1 for w in projected)
        assert parsed == len(_fpg_files()) - 1

    def test_one_level_inversion_projects_letters_only(self):
        # a term of beta_+ whose first nonzero degree level is 0 keys the
        # sweep without its image, so over a one-level quotient nov_invert
        # projects letters and no longer word
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 1)
        chi = parse_mchar((DATA / "chi_parafree_c.mchar").read_text(), q.target)
        projected = []
        ctx = NovContext(chi, Trunc([4], 16), lambda w: projected.append(w) or q.apply_word(w))
        ring = GroupRing(P.free_group, QQ)
        beta = ring.parse("1 - 2 c b a c")
        gamma = nov_invert(NovSeries(ctx, beta))
        assert projected and all(len(w) == 1 and w[0][1] == 1 for w in projected)
        assert beyond_frontier(ctx, ring_mul(beta, gamma.body) - ring.one())

    def test_two_level_context_projects_each_word(self):
        # level-1 degrees are not additive: [c,b] has degree (0,1), its
        # letters sum to (0,0)
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 2)
        chi = parse_mchar("char 0: b=0 c=1\nchar 1: [c,b]=1", q.target)
        projected = []
        ctx = NovContext(chi, Trunc([3, 3], 8), lambda w: projected.append(w) or q.apply_word(w))
        F = P.free_group
        word = rand_word(random.Random(5), F, length=8)
        b, c = P.gen_names.index("b"), P.gen_names.index("c")
        words = [F.collect([(c, -1), (b, -1), (c, 1), (b, 1)])] + [word() for _ in range(40)]
        for w in words:
            projected.clear()
            assert ctx.deg(w) == chi.deg(q.apply_word(w)), w
            assert projected in ([w], [])  # [] when w was measured before
        assert ctx.deg(words[0]) == (0, 1)


class TestTrunc:
    @pytest.mark.parametrize("frontier", [[0], [3, -1], [Fraction(-1, 2)], [5, 0]])
    def test_non_positive_entry_rejected(self, frontier):
        # such a box drops the identity, so every certificate would pass
        with pytest.raises(ValueError, match="frontier entries must be positive"):
            Trunc(frontier, 8)

    @pytest.mark.parametrize("m_max", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_m_max_must_be_an_int(self, m_max):
        # a chain length never equals 2.5, so the cap would never fire; "3"
        # fails a comparison later, and True would act as 1
        with pytest.raises(ValueError, match="m_max must be an int"):
            Trunc([3], m_max)

    def test_entries_are_ints_when_integral(self):
        trunc = Trunc([Fraction(4, 2), "5/2"], 8)
        assert trunc.frontier == (2, Fraction(5, 2)) and type(trunc.frontier[0]) is int
        assert trunc.widened((Fraction(1, 2), -3)).frontier == (Fraction(5, 2), Fraction(5, 2))
        assert repr(trunc.doubled()) == "Trunc(4,5; m_max=16)"


class TestWrongGroup:
    """Without a projection, an element must live over chi's group."""

    def setup_ctx(self, heis, z3group):
        ctx = NovContext(MultiChar(heis, [[1, 1], [1]]), Trunc([3, 4], 16))
        return ctx, GroupRing(z3group, QQ).parse("1 + a"), GroupRing(heis, QQ).parse("1 + a")

    def test_series_from_elt(self, heis, z3group):
        ctx, foreign, _ = self.setup_ctx(heis, z3group)
        with pytest.raises(MismatchedGroup):
            series_from_elt(ctx, foreign)

    def test_nov_invert(self, heis, z3group):
        ctx, foreign, _ = self.setup_ctx(heis, z3group)
        with pytest.raises(MismatchedGroup):
            nov_invert(NovSeries(ctx, foreign))

    def test_nov_mul(self, heis, z3group):
        ctx, foreign, own = self.setup_ctx(heis, z3group)
        with pytest.raises(MismatchedGroup):
            nov_mul(series_from_elt(ctx, own), NovSeries(ctx, foreign))
        with pytest.raises(MismatchedGroup):
            nov_mul(NovSeries(ctx, foreign), series_from_elt(ctx, own))


def rand_ring_elt(rng, ring, word, nterms, fractional=False):
    terms = []
    for _ in range(nterms):
        cf = rng.choice([-3, -2, -1, 1, 2, 3])
        if fractional and rng.random() < 0.5:
            cf = Fraction(cf, rng.choice([2, 3, 5]))
        terms.append((word(), cf))
    return ring.from_terms(terms)


def rand_word(rng, G, length=4):
    """A sampler of seeded normal forms (pc groups) or reduced words (free groups)."""
    return lambda: G.collect([(rng.randrange(G.ngens), rng.choice([-2, -1, 1, 2]))
                              for _ in range(rng.randint(0, length))])


def parafree_context(values, frontier):
    """Free words of Baumslag's parafree group, measured through its class-2 quotient."""
    P = parse_presentation((DATA / "parafree.fpg").read_text())
    q = nilpotent_quotient(P, 2)
    ctx = NovContext(MultiChar(q.target, values), Trunc(frontier, 16), q.apply_word)
    return ctx, GroupRing(P.free_group, QQ), P.free_group


class TestProductBelow:
    """The level-0-pruned product agrees with ring_mul on every retained term."""

    CASES = [
        ("heis", [[1, 1], [1]], [3, 4]),
        ("heis", [[1, -2], [3]], [2, 5]),
        ("heis", [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(3, 4)]], [2, 3]),
        ("heis", [[1, 1], [-1]], [Fraction(5, 2), Fraction(7, 3)]),
        ("free_class3", [[1, 2], [-1], [1, -1]], [3, 3, 4]),
        ("free_class3", [[Fraction(1, 3), 1], [Fraction(5, 2)], [2, 1]],
         [Fraction(7, 3), 3, Fraction(9, 2)]),
    ]

    def check(self, ctx, x, y):
        pruned = _product_below(ctx, x, y)
        full = ring_mul(x, y)
        assert truncate_elt(ctx, pruned) == truncate_elt(ctx, full), (x, y)
        return len(pruned.terms) < len(full.terms)

    @pytest.mark.parametrize("name,values,frontier", CASES)
    def test_pc_backend(self, request, name, values, frontier):
        G = request.getfixturevalue(name)
        ctx = NovContext(MultiChar(G, values), Trunc(frontier, 16))
        R = GroupRing(G, QQ)
        rng = random.Random(str((name, values, frontier)))
        word = rand_word(rng, G)
        skipped = 0
        for i in range(30):
            x = rand_ring_elt(rng, R, word, rng.randint(1, 6), fractional=i % 2 == 1)
            y = rand_ring_elt(rng, R, word, rng.randint(1, 6))
            skipped += self.check(ctx, x, y)
        assert skipped  # pruning happened, so the comparison is not vacuous

    @pytest.mark.parametrize("values,frontier", [
        ([[1, 2], [1]], [2, 2]),
        ([[Fraction(1, 2), -1], [Fraction(-3, 2)]], [Fraction(3, 2), 2]),
    ])
    def test_free_backend_with_projection(self, values, frontier):
        ctx, R, F = parafree_context(values, frontier)
        rng = random.Random(str((values, frontier)))
        word = rand_word(rng, F)
        skipped = 0
        for i in range(30):
            x = rand_ring_elt(rng, R, word, rng.randint(1, 5), fractional=i % 2 == 1)
            y = rand_ring_elt(rng, R, word, rng.randint(1, 5))
            skipped += self.check(ctx, x, y)
        assert skipped

    @pytest.mark.parametrize("name,values,frontier", CASES[:1] + CASES[4:5])
    def test_level0_degree_is_additive(self, request, name, values, frontier):
        G = request.getfixturevalue(name)
        ctx = NovContext(MultiChar(G, values), Trunc(frontier, 16))
        word = rand_word(random.Random(name), G)
        for _ in range(60):
            g, h = word(), word()
            assert ctx.deg(G.mul(g, h))[0] == ctx.deg(g)[0] + ctx.deg(h)[0]

    def test_level0_degree_is_additive_through_projection(self):
        ctx, _, F = parafree_context([[1, 2], [1]], [2, 2])
        word = rand_word(random.Random(4), F)
        for _ in range(60):
            g, h = word(), word()
            assert ctx.deg(F.mul(g, h))[0] == ctx.deg(g)[0] + ctx.deg(h)[0]

    def test_level1_degree_is_not_additive(self, heis):
        # b a = a b c: the product picks up a cross term at level 1
        ctx = NovContext(MultiChar(heis, [[1, 1], [1]]), Trunc([3, 3], 16))
        a, b = heis.generator(heis.index["a"]), heis.generator(heis.index["b"])
        assert ctx.deg(heis.mul(b, a)) == (2, 1)
        assert ctx.deg(b)[1] + ctx.deg(a)[1] == 0


class TestNovInvert:
    def test_geometric_series(self, zgroup):
        R = GroupRing(zgroup, QQ)
        ctx = NovContext(MultiChar(zgroup, [[1]]), Trunc([5], 10))
        gamma = nov_invert(series_from_elt(ctx, R.parse("1 - t")))
        assert format_series(gamma) == "1 + t + t^2 + t^3 + t^4 + O(5)"

    def test_no_strict_minimum(self, zgroup):
        R = GroupRing(zgroup, QQ)
        ctx = NovContext(MultiChar(zgroup, [[0]]), Trunc([5], 10))
        with pytest.raises(NoStrictMinimum):
            nov_invert(series_from_elt(ctx, R.parse("1 - t")))

    def test_m_max_exhaustion(self, zgroup):
        R = GroupRing(zgroup, QQ)
        ctx = NovContext(MultiChar(zgroup, [[1]]), Trunc([64], 3))
        with pytest.raises(TruncationInsufficient):
            nov_invert(series_from_elt(ctx, R.parse("1 - t")))

    def test_heisenberg_binomials(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        ctx = NovContext(chi, Trunc([3, 3], 12))
        beta = series_from_elt(ctx, R.parse("1 - a - c"))
        gamma = nov_invert(beta)
        # independent recomputation: sum of (a+c)^m by repeated ring_mul
        acc = R.one()
        total = R.one()
        step = R.parse("a + c")
        for _ in range(1, 5):
            acc = ring_mul(acc, step)
            total = total + acc
        assert in_box(ctx, gamma.body) == in_box(ctx, total)
        # both residuals clear the frontier
        assert beyond_frontier(ctx, ring_mul(beta.body, gamma.body) - R.one())
        assert beyond_frontier(ctx, ring_mul(gamma.body, beta.body) - R.one())

    def test_each_series_term_is_multiplied_once(self, heis, monkeypatch):
        # the sweep multiplies every term of S = gamma * beta_0 by beta_plus
        # once; beta * beta_0^-1, beta_0^-1 * S and the two residuals make
        # the rest.  The chain-by-chain loop made 27 496 products here.
        R = GroupRing(heis, QQ)
        ctx = NovContext(MultiChar(heis, [[1, 1], [1]]), Trunc([12, 16], 64))
        beta = series_from_elt(ctx, R.parse("1 + a - b + c"))
        products = []
        mul = heis.mul
        monkeypatch.setattr(heis, "mul", lambda g, h: products.append(1) or mul(g, h))
        gamma = nov_invert(beta).body
        n, s = len(beta.body.terms), len(gamma.terms)
        assert (n, s) == (4, 1248)
        assert len(products) <= (n - 1) * s + 2 * n * s + s + n

    def test_laurent_direction(self, zgroup):
        # beta_0 with negative degree: u - 2 under chi(t) = -1
        R = GroupRing(zgroup, QQ)
        ctx = NovContext(MultiChar(zgroup, [[-1]]), Trunc([6], 20))
        beta = series_from_elt(ctx, R.parse("t - 2"))
        gamma = nov_invert(beta)
        assert beyond_frontier(ctx, ring_mul(beta.body, gamma.body) - R.one())
        # gamma is complete below the frontier: t^-1 ... coefficients 2^k
        assert gamma.body.terms[zgroup.pow(zgroup.generator(0), -3)] == Fraction(4)

    def test_frontier_monotonicity(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        coarse = NovContext(chi, Trunc([3, 3], 16))
        fine = NovContext(chi, Trunc([5, 5], 24))
        beta_elt = R.parse("1 - a - c")
        g1 = nov_invert(series_from_elt(coarse, beta_elt))
        g2 = nov_invert(series_from_elt(fine, beta_elt))
        box1 = in_box(coarse, g1.body)
        for g, cf in box1.items():
            assert g2.body.terms.get(g) == cf


class TestInverseStability:
    """The inverse at frontier F and at the doubled frontier 2F agree on
    every term that F retains."""

    def assert_stable(self, chi, trunc, elt):
        coarse, fine = NovContext(chi, trunc), NovContext(chi, trunc.doubled())
        g1 = nov_invert(series_from_elt(coarse, elt))
        g2 = nov_invert(series_from_elt(fine, elt))
        assert in_box(coarse, g2.body) == g1.body.terms, str(elt)

    def test_heisenberg_units(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 1], [1]])
        rng = random.Random(8)
        for _ in range(8):
            s = [rng.choice("+-") for _ in range(4)]
            self.assert_stable(chi, Trunc([4, 6], 32),
                               R.parse(f"{s[0]}1 {s[1]} a {s[2]} b {s[3]} c".lstrip("+")))

    @pytest.mark.parametrize("text", ["1 + t", "1 - t", "2 + t", "2 - t"])
    def test_laurent_units(self, zgroup, text):
        R = GroupRing(zgroup, QQ)
        frontier = random.Random(text).randint(4, 10)
        self.assert_stable(MultiChar(zgroup, [[1]]), Trunc([frontier], 24), R.parse(text))


class TestMultiLevelInBoxTerms:
    """Known multi-level leaks: a result at frontier F whose in-box terms
    differ from those of the same computation at F + 5.  Frontiers are
    widened by subtracting degree tuples, which misses how a product lowers
    deeper levels, and no residual certificate sees the gap.  Sound
    widening must flip both to passing."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the inverse misses a^4 b^-1, of degree (3,0)")
    def test_inverse_of_b_plus_b_a(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 1], [1]])  # F_ab
        box = NovContext(chi, Trunc([4, 4]))
        got = nov_invert(series_from_elt(box, R.parse("b + b a")))
        ref = nov_invert(series_from_elt(NovContext(chi, Trunc([9, 9])), R.parse("b + b a")))
        assert in_box(box, got.body) == in_box(box, ref.body)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the nested inverse brings dropped terms into the box")
    def test_nested_expansion(self, heis):
        R = GroupRing(heis, QQ)
        chi = parse_mchar((DATA / "chi_h3.mchar").read_text(), heis)
        frac = parse_fraction_expr("(1 - (2 - c^-1)^-1 a^-1)^-1", R)
        box = NovContext(chi, Trunc([3, 3]))
        got = expand(frac, chi, box.trunc)
        ref = expand(frac, chi, Trunc([8, 8]))
        assert in_box(box, got.body) == in_box(box, ref.body)


def _chain_loop_inverse(beta):
    """The reference for nov_invert's sweep: the geometric series summed
    chain length by chain length, P_{m+1} = trunc(P_m * beta_plus), for at
    most m_max factors, under the same residual certificates."""
    ctx, body = beta.ctx, beta.body
    ring = body.ring
    group, field = ring.group, ring.field
    q, r, _ = minimal_term(ctx, body)
    beta0_inv = ring.monomial(field.inv(r), group.inv(q))
    one = ring.one()
    beta_plus = one - ring_mul(body, beta0_inv)
    wctx = ctx.with_trunc(ctx.trunc.widened(tuple(-d for d in ctx.deg(group.inv(q)))))
    S = P = one
    for _ in range(ctx.trunc.m_max):
        P = truncate_elt(wctx, _product_below(wctx, P, beta_plus))
        if P.is_zero():
            break
        S = S + P
    gamma = ring_mul(beta0_inv, S)
    if not beyond_frontier(ctx, _product_below(ctx, body, gamma) - one) or \
            not beyond_frontier(ctx, _product_below(ctx, gamma, body) - one):
        raise TruncationInsufficient("residual inside the frontier")
    return gamma


def _outcome(invert, beta):
    try:
        return invert(beta)
    except NilnovError as err:
        return type(err)


def _seeded_units(rng, R, gens, count):
    """Sums of a scalar and two to four scaled words of length one to three."""
    for _ in range(count):
        words = [" ".join(f"{rng.choice(gens)}^{rng.choice((-2, -1, 1, 2))}"
                          for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(2, 4))]
        yield R.parse(rng.choice("12") + "".join(
            f" {rng.choice('+-')} {rng.choice('123')}*{w}" for w in words))


class TestSweepAgainstChainLoop:
    """nov_invert sums its geometric series by one sweep in key order; the
    chain-by-chain loop it replaced is the reference.  Where the loop
    certifies, gamma agrees term by term, the band at and beyond the
    frontier included; where it fails, the sweep fails the same way, except
    that a beta_plus term of non-positive degree whose powers stay inside
    the box stalls at once, where the loop fails after m_max factors."""

    def assert_matches(self, ctx, elt):
        beta = series_from_elt(ctx, elt)
        if beta.body.is_zero():
            return None
        got = _outcome(lambda b: nov_invert(b).body, beta)
        expected = _outcome(_chain_loop_inverse, beta)
        if isinstance(got, RingElt) and isinstance(expected, RingElt):
            assert got.terms == expected.terms, str(elt)
        elif got is NoStrictMinimum and expected is TruncationInsufficient:
            with pytest.raises(NoStrictMinimum, match="beta_plus term of degree"):
                nov_invert(beta)
        else:
            assert got is expected, str(elt)
        return got if isinstance(got, type) else RingElt

    def assert_corpus(self, ctx, R, gens, count, seed):
        outcomes = Counter(self.assert_matches(ctx, elt) for elt in
                           _seeded_units(random.Random(seed), R, gens, count))
        assert outcomes[RingElt] >= count // 4, outcomes
        return outcomes

    @pytest.mark.parametrize("comps, frontier", [([[1, 1], [1]], (3, 5)),
                                                 ([[1, 0], [1]], (4, 4)),
                                                 ([[1, 1], [-1]], (4, 4))])
    def test_heisenberg_units(self, heis, comps, frontier):
        ctx = NovContext(MultiChar(heis, comps), Trunc(frontier, 24))
        self.assert_corpus(ctx, GroupRing(heis, QQ), "abc", 60, str(comps))

    def test_class3_units(self, free_class3):
        chi = parse_mchar((DATA / "chi_f23.mchar").read_text(), free_class3)
        ctx = NovContext(chi, Trunc([3, 3, 3], 12))
        self.assert_corpus(ctx, GroupRing(free_class3, QQ), "abcde", 40, "f23")

    def test_free_words_through_the_quotient(self):
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 2)
        chi = parse_mchar("char 0: b=0 c=1\nchar 1: [c,b]=1", q.target)
        ctx = NovContext(chi, Trunc([3, 3], 24), q.apply_word)
        self.assert_corpus(ctx, GroupRing(P.free_group, QQ), "abc", 40, "parafree")

    def test_chain_key(self, heis):
        # a b^-1 c has degree (0,1) but lies outside G_1: the sweep keys by
        # chain length, which ends where the loop ends
        ctx = NovContext(MultiChar(heis, [[1, 1], [1]]), Trunc([3, 5], 64))
        with time_limit(2):
            assert self.assert_matches(ctx, GroupRing(heis, QQ).parse("1 + 2*c - a b^-1 c")) \
                is TruncationInsufficient

    def test_non_positive_term_whose_powers_leave_the_box(self, heis):
        # beta_plus = -a b^-1 has degree (0,0) under chi (1,1;-1), but
        # (a b^-1)^m = a^m b^-m c^-binom(m,2) has degree (0, binom(m,2)):
        # the series leaves the box and the loop certifies
        ctx = NovContext(MultiChar(heis, [[1, 1], [-1]]), Trunc([4, 4], 64))
        assert self.assert_matches(ctx, GroupRing(heis, QQ).parse("a b + a^2 c^-1")) is RingElt

    @pytest.mark.parametrize("comps, text, outcome", [
        ([[1, 1], [-1]], "a b + a^2 c^-1 + a^2 c^-2", RingElt),
        ([[1, 1], [1]], "a^-1 b^2 + b c + b c^2", TruncationInsufficient)])
    def test_tied_weight_proves_nothing(self, heis, monkeypatch, comps, text, outcome):
        # beta_plus is a multiple of a b^-1, of degree (0,0), plus one of
        # a b^-1 c^(-/+)1: both have level-0 vector (1,-1), the weight of
        # a b^-1 is tied and the sweep goes chain by chain.  Under (1,1;-1)
        # the powers of a b^-1 leave the box and the loop certifies; under
        # (1,1;1) they stay inside, and without b c^2 the sweep would stall
        # at once with NoStrictMinimum
        keys = []
        sweep_key = novikov._sweep_key
        monkeypatch.setattr(novikov, "_sweep_key",
                            lambda *args: keys.append(sweep_key(*args)) or keys[-1])
        ctx = NovContext(MultiChar(heis, comps), Trunc([4, 4], 16))
        assert self.assert_matches(ctx, GroupRing(heis, QQ).parse(text)) is outcome
        assert keys == [0]

    def test_zero_part_mapping_to_the_identity(self):
        # the relator r of P maps to the identity: a chain-by-chain sweep of
        # beta_plus = r/2 sums the chains 1 + r/2 + r^2/4 + r^3/8 up to
        # m_max 3, keeping the free words r^k apart though they share one
        # image; nothing leaves the box, so S*beta_plus - (S - 1) is the
        # last chain's product r^4/16.  nov_invert never sweeps such a
        # beta_plus: a body term with the image of the minimal term ties it
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 2)
        chi = parse_mchar("char 0: b=0 c=1\nchar 1: [c,b]=1", q.target)
        ctx = NovContext(chi, Trunc([3, 3], 3), q.apply_word)
        R, (r,) = GroupRing(P.free_group, QQ), P.relators
        beta_plus = R.monomial(Fraction(1, 2), r)
        powers = [P.free_group.collect(r * k) for k in range(5)]
        S, D = novikov._geometric_sum(ctx, beta_plus, 0, 3)
        assert S.terms == {g: Fraction(1, 2 ** k) for k, g in enumerate(powers[:4])}
        assert D.terms == {powers[4]: Fraction(1, 16)}

    @pytest.mark.parametrize("comps, frontier", [([[1, 1], [1]], (3, 5)),
                                                 ([[1, 0], [1]], (4, 4)),
                                                 ([[1, 1], [-1]], (4, 4))])
    def test_small_m_max(self, heis, monkeypatch, comps, frontier):
        # with m_max 3 some degree sweeps reach a chain of 3 factors in a
        # bucket that mixes chain lengths; they are redone by chain length
        sums = []
        geometric_sum = novikov._geometric_sum
        monkeypatch.setattr(novikov, "_geometric_sum",
                            lambda *args: sums.append(geometric_sum(*args)) or sums[-1])
        ctx = NovContext(MultiChar(heis, comps), Trunc(frontier, 3))
        self.assert_corpus(ctx, GroupRing(heis, QQ), "abc", 60, "m_max" + str(comps))
        assert sums.count(None) > 0

    @pytest.mark.parametrize("frontier, outcome", [(4, RingElt), (64, TruncationInsufficient)])
    def test_m_max_caps_the_factors_in_a_chain(self, zgroup, frontier, outcome):
        # m_max 3 sums 1 + t + t^2 + t^3: enough below frontier 4, not below 64
        ctx = NovContext(MultiChar(zgroup, [[1]]), Trunc([frontier], 3))
        assert self.assert_matches(ctx, GroupRing(zgroup, QQ).parse("1 - t")) is outcome


class TestSweepOwnsItsDicts:
    """_geometric_sum adds into S, D and its pending buckets in place, so
    every dict it adds into must be its own: the inverted body, beta_plus
    and the leaves of an expanded fraction keep their terms, neither the
    sum nor the returned gamma is a dict that was pending as a bucket, and
    D is none of a bucket, beta_plus and S."""

    def spy(self, monkeypatch):
        sweeps, current = [], []
        geometric_sum, product_below = novikov._geometric_sum, novikov._product_below

        def sweep(wctx, beta_plus, cut, m_max):
            record = {"beta_plus": beta_plus, "before": dict(beta_plus.terms), "buckets": []}
            current.append(record)
            try:
                record["sum"] = geometric_sum(wctx, beta_plus, cut, m_max)
            finally:
                current.pop()
            sweeps.append(record)
            return record["sum"]

        def product(ctx, x, y, *args, **kwargs):
            # inside a sweep x is always a bucket; outside, it is a certificate
            if current:
                current[-1]["buckets"].append(x.terms)
            return product_below(ctx, x, y, *args, **kwargs)

        monkeypatch.setattr(novikov, "_geometric_sum", sweep)
        monkeypatch.setattr(novikov, "_product_below", product)
        return sweeps

    def assert_owned(self, sweeps, results):
        assert sweeps
        buckets = [b for rec in sweeps for b in rec["buckets"]]
        for rec in sweeps:
            assert rec["beta_plus"].terms == rec["before"]
            assert all(b is not rec["beta_plus"].terms for b in buckets)
            if rec["sum"] is not None:
                S, D = rec["sum"]
                assert all(b is not S.terms and b is not D.terms for b in buckets)
                assert D.terms is not rec["beta_plus"].terms and D.terms is not S.terms
        for result in results:
            assert all(b is not result.terms for b in buckets)

    def test_nov_invert(self, heis, monkeypatch):
        R = GroupRing(heis, QQ)
        sweeps = self.spy(monkeypatch)
        for comps, frontier in [([[1, 1], [1]], (12, 16)), ([[1, 1], [-1]], (4, 4))]:
            ctx = NovContext(MultiChar(heis, comps), Trunc(frontier, 64))
            for elt in _seeded_units(random.Random(str(comps)), R, "abc", 20):
                beta = series_from_elt(ctx, elt)
                body = dict(beta.body.terms)
                gamma = _outcome(nov_invert, beta)
                assert beta.body.terms == body
                self.assert_owned(sweeps, [gamma.body, gamma.residual]
                                  if isinstance(gamma, NovSeries) else [])

    def test_expand(self, heis, monkeypatch):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        frac = parse_fraction_expr("(1 - (2 + c)^-1 a b)^-1", R)
        leaves = [coeff for node in nodes(frac) for coeff, _ in node.alpha + node.beta
                  if isinstance(coeff, RingElt)]
        before = [dict(x.terms) for x in leaves]
        sweeps = self.spy(monkeypatch)
        res = expand(frac, chi, Trunc([3, 4], 16))
        assert [x.terms for x in leaves] == before
        self.assert_owned(sweeps, [res.body])


def _spy_sweeps(monkeypatch):
    """(cut, result, products, wctx, beta_plus) of every _geometric_sum
    call, in order: products counts the buckets it multiplied by beta_plus,
    m_max + 1 for a zero-level sweep that reached a chain of m_max factors."""
    sweeps = []
    geometric_sum, product_below = novikov._geometric_sum, novikov._product_below
    products = []

    def counted(ctx, x, y, *args, **kwargs):
        products.append(None)
        return product_below(ctx, x, y, *args, **kwargs)

    def sweep(wctx, beta_plus, cut, m_max):
        products.clear()
        with monkeypatch.context() as patch:
            patch.setattr(novikov, "_product_below", counted)
            result = geometric_sum(wctx, beta_plus, cut, m_max)
        sweeps.append((cut, result, len(products), wctx, beta_plus))
        return result

    monkeypatch.setattr(novikov, "_geometric_sum", sweep)
    return sweeps


def _side_failure(side, degree):
    return re.escape(f"; least in {side}: degree {degree};")


class TestDerivedCertificates:
    """nov_invert reads gamma*beta - 1 = q^-1 (S - 1 - S*beta_plus) q off the
    products its sweep formed (S*beta_plus - (S - 1) is the sweep's D, on
    every term below the level-0 frontier of the sweep), and
    beta*gamma - 1 = S - 1 - beta_plus*S off one product with beta_plus; a
    node checks alpha times that right residual.  Inside the box each equals
    the product it replaces, on failing units and on sweeps that end at
    m_max too, and a failure names its side and least degree there."""

    def direct(self, ctx, elt, sweeps):
        """In-box terms of (direct left, direct right, derived left, derived
        right) for the last sweep, and the right residual on the terms of
        level-0 degree below the frontier."""
        body = series_from_elt(ctx, elt).body
        ring = body.ring
        group, field = ring.group, ring.field
        q, r, _ = minimal_term(ctx, body)
        beta0_inv = ring.monomial(field.inv(r), group.inv(q))
        one = ring.one()
        beta_plus = one - ring_mul(body, beta0_inv)
        S, D = sweeps[-1][1]
        gamma = ring_mul(beta0_inv, S)
        right = RingElt(ring, {group.mul(group.mul(group.inv(q), g), q): field.neg(c)
                               for g, c in D.terms.items()})
        below = {g: c for g, c in right.terms.items() if ctx.deg(g)[0] < ctx.trunc.frontier[0]}
        return (in_box(ctx, _product_below(ctx, body, gamma) - one),
                in_box(ctx, _product_below(ctx, gamma, body) - one),
                in_box(ctx, S - one - _product_below(ctx, beta_plus, S)),
                in_box(ctx, right), below)

    def assert_unit(self, ctx, elt, sweeps):
        """The outcome of inverting elt: RingElt, or the error's type."""
        beta = series_from_elt(ctx, elt)
        if beta.body.is_zero():
            return None
        sweeps.clear()
        got = _outcome(nov_invert, beta)
        one = beta.body.ring.one()
        for _, result, _, wctx, beta_plus in sweeps:
            # D is S*beta_plus - (S - 1) on every term, not only in the box
            if result is not None:
                S, D = result
                assert D == _product_below(wctx, S, beta_plus) - (S - one), str(elt)
        if got is NoStrictMinimum:
            return got
        left, right, derived_left, derived_right, below = self.direct(ctx, elt, sweeps)
        assert derived_left == left and derived_right == right, str(elt)
        for side, residual in (("beta*gamma - 1", left), ("gamma*beta - 1", right)):
            if residual:
                assert got is TruncationInsufficient, str(elt)
                with pytest.raises(TruncationInsufficient, match=_side_failure(
                        side, novikov.format_degree(min(map(ctx.deg, residual))))):
                    nov_invert(beta)
                return got
        assert got.residual.terms == below, str(elt)
        return RingElt

    def assert_node(self, ctx, A, B):
        """alpha*(gamma*beta - 1) against result*beta - alpha, and the node's
        outcome: RingElt, or the error's type."""
        try:
            inv = nov_invert(NovSeries(widened_context(ctx, [A]), B))
        except NilnovError as err:
            return type(err)
        derived = in_box(ctx, _product_below(ctx, A, inv.residual))
        residual = in_box(ctx, _product_below(ctx, ring_mul(A, inv.body), B) - A)
        assert derived == residual, (str(A), str(B))
        node = Node([(A, ())], [(B, ())], 0)
        if not residual:
            assert in_box(ctx, expand(node, ctx.chi, ctx.trunc).body) == \
                in_box(ctx, ring_mul(A, inv.body))
            return RingElt
        degree = novikov.format_degree(min(map(ctx.deg, residual)))
        with pytest.raises(CertificateFailure, match=f"; residual degree {re.escape(degree)} inside"):
            expand(node, ctx.chi, ctx.trunc)
        return CertificateFailure

    def test_seeded_units_and_nodes(self, heis, free_class3, monkeypatch):
        sweeps = _spy_sweeps(monkeypatch)
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        quotient = nilpotent_quotient(P, 2)
        chi_p = parse_mchar("char 0: b=0 c=1\nchar 1: [c,b]=1", quotient.target)
        chi_f = parse_mchar((DATA / "chi_f23.mchar").read_text(), free_class3)
        RH, RF = GroupRing(heis, QQ), GroupRing(free_class3, QQ)
        cases = [(NovContext(MultiChar(heis, comps), Trunc(frontier, m_max)), RH, "abc", 40)
                 for comps, frontier in [([[1, 1], [1]], (3, 5)), ([[1, 0], [1]], (4, 4)),
                                         ([[1, 1], [-1]], (4, 4))]
                 for m_max in (24, 3)]
        cases += [(NovContext(chi_f, Trunc([3, 3, 3], m_max)), RF, "abcde", 24) for m_max in (12, 3)]
        cases += [(NovContext(chi_p, Trunc([3, 3], m_max), quotient.apply_word),
                   GroupRing(P.free_group, QQ), "abc", 24) for m_max in (8, 3)]
        units, nodes_, cuts = Counter(), Counter(), Counter()
        with time_limit(2):
            for ctx, R, gens, count in cases:
                rng = random.Random(f"{ctx.trunc!r}{gens}")
                for elt in _seeded_units(rng, R, gens, count):
                    units[self.assert_unit(ctx, elt, sweeps)] += 1
                    cuts.update((cut, result is None, cut == 0 and products > ctx.trunc.m_max)
                                for cut, result, products, *_ in sweeps)
                if ctx.project is None:  # expand reads pc elements only
                    pairs = zip(_seeded_units(rng, R, gens, count), _seeded_units(rng, R, gens, count))
                    nodes_.update(self.assert_node(ctx, A, B) for A, B in pairs)
        # certified and failing units, zero-level sweeps that reach m_max,
        # degree sweeps redone on zero levels after reaching it, and nodes
        # that certify and that fail
        assert units[RingElt] and units[TruncationInsufficient], units
        assert cuts[(0, False, True)] and cuts[(2, True, False)], cuts
        assert nodes_[RingElt] and nodes_[CertificateFailure], nodes_

    @pytest.mark.parametrize("text, side, degree", [
        ("2 + 3*a + 2*b^-1 c", "beta*gamma - 1", "(1,0)"),
        ("1 - a^-1 + 3*b^4 c^2", "gamma*beta - 1", "(1,2)")])
    def test_each_side_is_needed(self, heis, monkeypatch, text, side, degree):
        # under (1,0;1) at 4,4 only one residual of each inverse has a term
        # inside the box, so a check of the other side alone would certify
        sweeps = _spy_sweeps(monkeypatch)
        ctx = NovContext(MultiChar(heis, [[1, 0], [1]]), Trunc([4, 4], 64))
        elt = GroupRing(heis, QQ).parse(text)
        with pytest.raises(TruncationInsufficient, match=_side_failure(side, degree)):
            nov_invert(series_from_elt(ctx, elt))
        left, right = self.direct(ctx, elt, sweeps)[:2]
        assert [bool(left), bool(right)] == [side.startswith("beta"), side.startswith("gamma")]

    def test_node_failure_names_its_degree(self, heis):
        # alpha = 1 + a - b^-2 reaches the box from the right residual of
        # beta = 2 - 2*a^-1 b^-1 c + c, which is beyond the widened box
        ctx = NovContext(MultiChar(heis, [[1, 1], [1]]), Trunc([3, 3], 64))
        R = GroupRing(heis, QQ)
        assert self.assert_node(ctx, R.parse("1 + a - b^-2"),
                                R.parse("2 - 2*a^-1 b^-1 c + c")) is CertificateFailure
        with pytest.raises(CertificateFailure, match=r"; residual degree \(2,-1\) inside"):
            expand(Node([(R.parse("1 + a - b^-2"), ())], [(R.parse("2 - 2*a^-1 b^-1 c + c"), ())], 0),
                   ctx.chi, ctx.trunc)


class TestExpand:
    def test_leaf_passthrough(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        res = expand(R.parse("3 + a"), chi, Trunc([4, 4], 10))
        assert res.body == R.parse("3 + a")

    def test_plain_element_expands_to_itself(self, zgroup):
        x = GroupRing(zgroup, QQ).parse("1 - t")
        assert expand(x, MultiChar(zgroup, [[1]]), Trunc([5], 10)).body == x

    def test_geometric_node(self, zgroup):
        R = GroupRing(zgroup, QQ)
        frac = frac_invert(R.parse("1 - t"))
        res = expand(frac, MultiChar(zgroup, [[1]]), Trunc([5], 10))
        assert format_series(res) == "1 + t + t^2 + t^3 + t^4 + O(5)"

    def test_incompatible_reports_node(self, zgroup):
        R = GroupRing(zgroup, QQ)
        frac = frac_invert(R.parse("1 - t"))
        with pytest.raises(IncompatibleCharacter) as err:
            expand(frac, MultiChar(zgroup, [[0]]), Trunc([5], 10))
        assert err.value.node is not None

    def test_finite_node_expands_under_any_character(self, free_class3):
        # a a (2 - e c)^-1 a nests the finite level-2 node -d^-2 e / 1: chi_2
        # maps d^-2 e to 0 like the identity of its denominator, which is no
        # term of the node, so chi orders the node's one term
        R = GroupRing(free_class3, QQ)
        chi = parse_mchar((DATA / "chi_f23.mchar").read_text(), free_class3)
        res = expand(parse_fraction_expr("a a (2 - e c)^-1 (a)", R), chi, Trunc([3, 3, 3], 64))
        assert format_series(res) == \
            "1/2*a^3 + 1/4*a^3 c d e + 1/8*a^3 c^2 d^2 e^2 + O(3,3,3)"

    def test_nested_fraction(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        frac = parse_fraction_expr("(1 - (1 - c)^-1 a)^-1", R)
        res = expand(frac, chi, Trunc([3, 4], 16))
        # leading terms 1 + a + ac + ac^2 + ... + a^2 + ...
        a, c = heis.index["a"], heis.index["c"]
        assert res.body.terms[()] == 1
        assert res.body.terms[((a, 1),)] == 1
        assert res.body.terms[((a, 1), (c, 1))] == 1
        assert res.body.terms[((a, 2), (c, 1))] == 2
        # independent bottom-up recomputation at a finer frontier agrees
        fine = expand(frac, chi, Trunc([4, 6], 24))
        ctx = NovContext(chi, Trunc([3, 4], 16))
        for g, cf in in_box(ctx, res.body).items():
            assert fine.body.terms.get(g) == cf

    def test_sign_sweep_succeeds_with_reversed_orders(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        frac = parse_fraction_expr("(1 - a - c)^-1", R)
        order = LexOrder(heis)
        from nilnov import is_compatible
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            flipped = chi.with_signs(list(signs))
            rev = reversed_levels(order, signs)
            assert is_compatible(flipped, frac, rev)
            res = expand(frac, flipped, Trunc([3, 3], 16))
            assert res.body.terms  # expansion produced certified output


class TestFracParse:
    def test_plain_polynomial_is_leaf(self, zgroup):
        R = GroupRing(zgroup, QQ)
        frac = parse_fraction_expr("1 - 2/3*t + t^2", R)
        assert isinstance(frac, RingElt)
        assert frac == R.parse("1 - 2/3*t + t^2")

    def test_plain_element_parses_to_itself(self, zgroup):
        R = GroupRing(zgroup, QQ)
        x = parse_fraction_expr("1 - t", R)
        assert x.ring is R and x == R.parse("1 - t")

    def test_invert_scalar_gives_element(self, zgroup):
        R = GroupRing(zgroup, QQ)
        inv = frac_invert(R.parse("2"))
        assert inv.ring is R and inv == R.parse("1/2")

    def test_monomial_inverse_stays_polynomial(self, zgroup):
        R = GroupRing(zgroup, QQ)
        frac = parse_fraction_expr("(2*t)^-1", R)
        assert isinstance(frac, RingElt)
        assert frac == R.parse("1/2*t^-1")

    def test_nested_structure_levels(self, heis):
        R = GroupRing(heis, QQ)
        frac = parse_fraction_expr("(1 - a - c)^-1", R)
        assert not isinstance(frac, RingElt) and frac.level == 0
        # the identity-class denominator coefficient is a level-1 node
        coeffs = {tuple(g): cf for cf, g in frac.beta}
        inner = coeffs[()]
        assert not isinstance(inner, RingElt) and inner.level == 1

    def test_unsupported_same_level_product(self, zgroup):
        R = GroupRing(zgroup, QQ)
        with pytest.raises(UnsupportedFraction):
            parse_fraction_expr("(1 - t)^-1 (1 + t)^-1 + 1", R)

    @pytest.mark.parametrize("group, text, ore", [
        ("heis", "c (1 - c)^-1", False),
        ("free_class3", "(1 - d)^-1 a c", False),
        ("heis", "(1 - a)^-1 b", False),
        ("heis", "(1 - a)^-1 (1 - c)^-1", False),
        ("heis", "1 + (1 - a)^-1", False),
        ("zgroup", "(1 - t)^-1 (1 + t)^-1 + 1", True),
        ("heis", "(1 - a)^-1 (1 - b + c)", True),
        ("heis", "(1 - a)^-1 + (1 - b)^-1", True),
    ])
    def test_only_ore_moves_are_refused(self, request, group, text, ore):
        R = GroupRing(request.getfixturevalue(group), QQ)
        if ore:
            with pytest.raises(UnsupportedFraction):
                parse_fraction_expr(text, R)
        else:
            assert isinstance(parse_fraction_expr(text, R), Node)

    def test_products_with_group_parts(self, heis):
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 0], [1]])
        frac = parse_fraction_expr("(1 - c)^-1 a", R)
        res = expand(frac, chi, Trunc([3, 3], 12))
        a, c = heis.index["a"], heis.index["c"]
        assert res.body.terms[((a, 1),)] == 1
        assert res.body.terms[((a, 1), (c, 2))] == 1


def _f23_chi(group):
    """chi = (a=1 b=2; c=1; d=1 e=2), the class-3 pins' multicharacter."""
    return MultiChar(group, [[1, 2], [1], [1, 2]])


class TestGroupPartMoves:
    """Fractions move a deeper group part s past a level prefix p by
    c*u_ps = (c*u_psp^-1)*u_p; in class 3, p s p^-1 differs from s."""

    def test_class3_unit_matches_nov_invert(self, free_class3):
        R = GroupRing(free_class3, QQ)
        chi = _f23_chi(free_class3)
        ctx = NovContext(chi, Trunc([3, 3, 3], 64))
        res = expand(parse_fraction_expr("(1 - a c)^-1", R), chi, ctx.trunc)
        inv = nov_invert(series_from_elt(ctx, R.parse("1 - a c")))
        assert in_box(ctx, res.body) == in_box(ctx, inv.body)
        assert in_box(ctx, res.body) == in_box(ctx, R.parse("1 + a c + a^2 c^2 d"))

    def test_class3_right_multiplication(self, free_class3):
        R = GroupRing(free_class3, QQ)
        chi = _f23_chi(free_class3)
        ctx = NovContext(chi, Trunc([3, 3, 3], 64))
        geo = expand(parse_fraction_expr("(1 - d)^-1", R), chi, ctx.trunc).body
        for text in ("(1 - d)^-1 (a c)", "(1 - d)^-1 a c"):
            res = expand(parse_fraction_expr(text, R), chi, ctx.trunc)
            assert in_box(ctx, res.body) == in_box(ctx, ring_mul(geo, R.parse("a c")))

    def test_class3_left_multiplication(self, free_class3):
        R = GroupRing(free_class3, QQ)
        chi = _f23_chi(free_class3)
        ctx = NovContext(chi, Trunc([3, 3, 3], 64))
        res = expand(parse_fraction_expr("e (1 + b c)^-1", R), chi, ctx.trunc)
        assert in_box(ctx, res.body) == in_box(ctx, R.parse("e - b c e"))

    def test_node_is_alpha_times_beta_inverse(self, heis):
        """Node(alpha, beta) is alpha*beta^-1: a (1 - b)^-1 = a + a b + ...,
        while (1 - b)^-1 a = a + b a + ... differs by a power of c."""
        R = GroupRing(heis, QQ)
        chi = MultiChar(heis, [[1, 2], [1]])
        ctx = NovContext(chi, Trunc([4, 4], 64))
        b = R.parse("b").support()[0]
        a = R.parse("a").support()[0]
        frac = Node([(R.one(), a)], [(R.one(), ()), (-R.one(), b)], 0)
        assert in_box(ctx, expand(frac, chi, ctx.trunc).body) == in_box(ctx, R.parse("a + a b"))


class _TruncatedRingOps(RingOps):
    """The literal grammar over truncated series: products truncate
    ring_mul at the context's frontier, and ^-1 calls nov_invert.  It reads
    fraction texts without building any iterated fraction."""

    def __init__(self, ring, ctx):
        super().__init__(ring)
        self.ctx = ctx

    def mul(self, x, y):
        return truncate_elt(self.ctx, ring_mul(x, y))

    def invert(self, x):
        if len(x.terms) == 1:
            return super().invert(x)
        return truncate_elt(self.ctx, nov_invert(NovSeries(self.ctx, x)).body)


def _positive_expression(rng, gens):
    """A sum of products of positive words, units (1|2 +- w)^-1 and
    parenthesised sums."""
    def word():
        return " ".join(rng.choice(gens) for _ in range(rng.randint(1, 2)))

    def factor(depth):
        r = rng.random()
        if r < 0.35:
            return word()
        if r < 0.8 or depth:
            return f"({rng.choice('12')} {rng.choice('+-')} {word()})^-1"
        return f"({expression(depth + 1)})"

    def expression(depth=0):
        return " + ".join(" ".join(factor(depth) for _ in range(rng.randint(1, 3)))
                          for _ in range(rng.randint(1, 2)))

    return expression()


class TestExpandAgainstTruncatedArithmetic:
    """Wherever expand answers, it agrees inside the box with the same text
    evaluated by truncated products and nov_invert at frontier + 4.  Each
    case's fixed texts must be answered."""

    CASES = [("heis.pcg", [[1, 0], [1]], (4, 4), 60, ["c (1 - c)^-1", "(1 - a)^-1 a"]),
             ("heis.pcg", [[1, 1], [1]], (4, 4), 60, ["(1 + a b)^-1 (2 - c)^-1"]),
             ("f23.pcg", [[1, 2], [1], [1, 2]], (3, 3, 3), 40,
              ["(1 - a c)^-1", "(1 - d)^-1 a c", "e (1 + b c)^-1",
               "a a (2 - e c)^-1 (a)"])]

    @pytest.mark.parametrize("pcg, comps, frontier, count, fixed", CASES)
    def test_positive_corpus(self, pcg, comps, frontier, count, fixed):
        group = parse_pc((DATA / pcg).read_text())
        R = GroupRing(group, QQ)
        chi = MultiChar(group, comps)
        ctx = NovContext(chi, Trunc(frontier, 64))
        ref_ctx = NovContext(chi, Trunc([t + 4 for t in frontier], 64))
        rng = random.Random(pcg + str(comps))
        texts = fixed + [_positive_expression(rng, group.gen_names) for _ in range(count)]
        for text in texts:
            try:
                res = expand(parse_fraction_expr(text, R), chi, ctx.trunc)
            except NilnovError:
                assert text not in fixed
                continue
            ref = read_expr(text, _TruncatedRingOps(R, ref_ctx))
            assert in_box(ctx, res.body) == in_box(ctx, ref), text
