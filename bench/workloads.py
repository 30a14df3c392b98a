"""The three benchmark workloads.

Each workload is built from the nilnov package `nv`, the checkout root and
a seed.  Building it is the set-up (parsing, quotients, Fox complexes and
the seeded inputs); `run(i)` is one timed operation on input i, and
`check(i, out)` compares its output with the oracles.  Program functions are
looked up on `nv` at call time, so the traced run sees them wrapped.
"""

import random
from fractions import Fraction

import oracles

INPUTS = 256  # seeded inputs per run; operations cycle through them


def _words(elt):
    """A group-ring element as plain data: {((name, exp), ...): Fraction}."""
    names = elt.ring.group.gen_names
    return {tuple((names[g], e) for g, e in word): Fraction(cf)
            for word, cf in elt.terms.items()}


class CriterionCorpus:
    """The paper's worked examples, end to end, on the free-word path.

    One operation runs theorem_f on the mapping torus F2 x| Z, degree-1
    Novikov cohomology of BS(1,2) for both signs, and theorem_f on Z^2 for
    four characters.  The presentations are fixed: rotating or inverting
    relators changes theorem_f's time on the mapping torus from 1.2 s to
    11 s, so the seed only picks the Z^2 characters and the order in which
    the cases and the BS(1,2) signs run.
    """

    MT_FRONTIER, BS_FRONTIER, Z2_FRONTIER = 8, 5, 8
    Z2_CHARS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]

    def __init__(self, nv, root, seed):
        self.nv = nv
        data = root / "demos" / "data"
        src = {name: (data / f"{name}.fpg").read_text()
               for name in ("mapping_torus", "bs12", "torus")}
        self.counts = {name: oracles.presentation_counts(text) for name, text in src.items()}
        self.pres, self.quot, self.cx = {}, {}, {}
        for name, text in src.items():
            P = nv.parse_presentation(text)
            self.pres[name] = P
            self.quot[name] = nv.nilpotent_quotient(P, 1)
            self.cx[name] = nv.fox_complex(P, self.quot[name], nv.QQ, project=False)
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(INPUTS):
            cases = ["mapping_torus", "bs12", "torus"]
            rng.shuffle(cases)
            signs = rng.choice([(1, -1), (-1, 1)])
            chars = rng.sample(self.Z2_CHARS, 4)
            self.rounds.append((cases, signs, chars))

    def run(self, i):
        nv = self.nv
        cases, signs, chars = self.rounds[i % INPUTS]
        out = {}
        for case in cases:
            P, q = self.pres[case], self.quot[case]
            if case == "mapping_torus":
                chi = nv.MultiChar(q.target, [[1]])
                out[case] = [nv.theorem_f(P, q, chi, 2, nv.Trunc([self.MT_FRONTIER], 48))]
            elif case == "bs12":
                chi = nv.MultiChar(q.target, [[1]])
                out[case] = [nv.nov_cohomology(self.cx[case], chi, 1,
                                               nv.Trunc([self.BS_FRONTIER], 32), signs=[s])
                             for s in signs]
            else:
                out[case] = [nv.theorem_f(P, q, nv.MultiChar(q.target, [list(v)]), 2,
                                          nv.Trunc([self.Z2_FRONTIER], 48))
                             for v in chars]
        return out

    def check(self, i, out):
        nv = self.nv
        for case, results in out.items():
            if case == "bs12":
                reports = results
                oracles.check_one_sided(case, [(r.pattern, r.verdicts[1], r.stable)
                                               for r in reports])
            else:
                reports = []
                for verdict in results:
                    oracles.check_cd_drop(case, verdict.conclusion)
                    reports.extend(verdict.reports)
            nv.euler_check(self.cx[case], reports)
            for r in reports:
                oracles.check_euler(case, r.h, self.counts[case])


class SeriesH3:
    """Certified inversion and expansion in the Heisenberg group (pc backend).

    One operation inverts a seeded unit +-1 +- a +- b +- c and expands a
    seeded fraction (p + s (q + r c)^-1 w)^-1 with p, q, r, s = +-1 and
    w in {a, b}, both at frontier (12, 16) under chi_0 = (1, 1), chi_1 = 1.
    Coefficients and words are fixed in size, because the time of an
    inversion grows with the coefficients (0.3 s to 1.0 s for +-1 to +-3).
    """

    FRONTIER = (12, 16)
    CHI = {"a": 1, "b": 1, "c": 1}

    def __init__(self, nv, root, seed):
        from nilnov.fracparse import parse_fraction_expr

        self.nv = nv
        self.group = nv.parse_pc((root / "demos" / "data" / "heis.pcg").read_text())
        self.ring = nv.GroupRing(self.group, nv.QQ)
        self.chi = nv.MultiChar(self.group, [[self.CHI["a"], self.CHI["b"]], [self.CHI["c"]]])
        rng = random.Random(seed)
        sign = lambda: rng.choice((1, -1))  # noqa: E731
        self.inputs = []
        for _ in range(INPUTS):
            unit = {(): sign(), (("a", 1),): sign(), (("b", 1),): sign(), (("c", 1),): sign()}
            p, q, r, s = sign(), sign(), sign(), sign()
            w = rng.choice("ab")
            text = f"({p} {'+' if s > 0 else '-'} ({q} {'+' if r > 0 else '-'} c)^-1 {w})^-1"
            # (q + r c) is central, so (q + r c) * (p + s (q + r c)^-1 w) = p q + p r c + s w
            denominator = {(): p * q, (("c", 1),): p * r, ((w, 1),): s}
            numerator = {(): q, (("c", 1),): r}
            beta = self.ring.from_terms(
                (self.group.collect([(self.group.index[n], e) for n, e in word]), cf)
                for word, cf in unit.items())
            frac = parse_fraction_expr(text, self.ring)
            self.inputs.append({
                "beta": beta, "frac": frac,
                "beta_ref": oracles.heis_element(unit),
                "den_ref": oracles.heis_element(denominator),
                "num_ref": oracles.heis_element(numerator),
            })

    def run(self, i):
        nv = self.nv
        inp = self.inputs[i % INPUTS]
        ctx = nv.NovContext(self.chi, nv.Trunc(self.FRONTIER, 64))
        gamma = nv.nov_invert(nv.series_from_elt(ctx, inp["beta"]))
        result = nv.expand(inp["frac"], self.chi, nv.Trunc(self.FRONTIER, 64))
        return gamma.body, result.body

    def check(self, i, out):
        inp = self.inputs[i % INPUTS]
        gamma, result = (oracles.heis_element(_words(x)) for x in out)
        oracles.check_inverse(inp["beta_ref"], gamma, self.CHI, self.FRONTIER)
        oracles.check_multiplies_back(inp["den_ref"], result, inp["num_ref"],
                                      self.CHI, self.FRONTIER)


F23_SRC = """
pcgroup F23
level 0: a b
level 1: c
level 2: d e
conj b a = c
conj c a = d
conj c b = e
"""


class CollectF23:
    """Collection of products of two seeded normal forms in F23.

    u = a^i b^(+-11) c^k d^l e^m and v = a^(+-11) b^j c^k' d^l' e^m'.  The
    time is set by the b-exponent of u and the a-exponent of v (moving
    a^11 past b^11 takes the letter-by-letter path of _conj_syllable), and
    differs by up to 20% between their four sign combinations.  So one
    operation collects four products, one for each sign combination, and
    the seed draws the other exponents from +-[1, 13], +-[1, 40] and
    +-[1, 200].
    """

    PINNED = 11

    def __init__(self, nv, root, seed):
        self.nv = nv
        self.group = nv.parse_pc(F23_SRC)
        rng = random.Random(seed)
        sign = lambda: rng.choice((1, -1))  # noqa: E731
        self.inputs = []
        for _ in range(INPUTS):
            products = []
            for sb, sa in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                u = [("a", sign() * rng.randint(1, 13)), ("b", sb * self.PINNED),
                     ("c", sign() * rng.randint(1, 40)), ("d", sign() * rng.randint(1, 200)),
                     ("e", sign() * rng.randint(1, 200))]
                v = [("a", sa * self.PINNED), ("b", sign() * rng.randint(1, 13)),
                     ("c", sign() * rng.randint(1, 40)), ("d", sign() * rng.randint(1, 200)),
                     ("e", sign() * rng.randint(1, 200))]
                word = u + v
                products.append((word, [(self.group.index[n], e) for n, e in word]))
            self.inputs.append(products)

    def run(self, i):
        return [self.group.collect(word) for _, word in self.inputs[i % INPUTS]]

    def check(self, i, out):
        names = self.group.gen_names
        for (word, _), nf in zip(self.inputs[i % INPUTS], out):
            oracles.check_collected(word, [(names[g], e) for g, e in nf])


WORKLOADS = {
    "criterion-corpus": CriterionCorpus,
    "series-h3": SeriesH3,
    "collect-f23": CollectF23,
}
