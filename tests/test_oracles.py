"""Independent cross-checks of the homology engine.

Over an abelian quotient the (untruncated) Novikov coefficients form
Laurent-series fields, so the cohomology of the projected complex is
computed exactly by generic ranks of the matrices over the rational
function field.  Generic ranks are obtained by specializing the quotient
generators to several random rational points and taking the maximum, an
oracle entirely independent of the truncated elimination.

For a one-relator presentation, H^2 vanishes over the Novikov ring as soon
as some Fox derivative dr/dx has a unique minimal-degree free word: that
entry is then a Novikov unit.  The Fox derivatives are read off the
relator's letters here, without the elimination or `fox_complex`.
"""

import pathlib
import random
from fractions import Fraction

import pytest

from nilnov import (MultiChar, QQ, Trunc, fox_complex, nilpotent_quotient,
                    nov_cohomology, parse_presentation)
from nilnov.charorder import parse_mchar
from nilnov.fields import rank
from nilnov.homology import VANISHES

DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"


def _specialize(elt, values):
    """Evaluate a quotient-group-ring element at generator values."""
    total = Fraction(0)
    for g, cf in elt.terms.items():
        term = Fraction(cf)
        for gen, e in g:
            term *= values[gen] ** e
        total += term
    return total


def _generic_ranks(cx, seed):
    rng = random.Random(seed)
    best1 = best2 = 0
    n = cx.ring.group.ngens
    for _ in range(3):
        values = [Fraction(rng.randint(2, 19), rng.randint(2, 19)) for _ in range(n)]
        a1 = [[_specialize(e, values)] for e in cx.d1]
        a2 = [[_specialize(e, values) for e in row] for row in cx.d2]
        best1 = max(best1, rank(a1, QQ))
        best2 = max(best2, rank(a2, QQ))
    return best1, best2


# a fixed seed per case, so every run checks the same specialisation points
SEEDS = {"torus": 1, "bs12": 2, "mt": 3}


@pytest.mark.parametrize("name,src", [
    ("torus", "group torus\ngens a b\nrel a b a^-1 b^-1\n"),
    ("bs12", "group bs12\ngens a t\nrel t a t^-1 a^-2\n"),
    ("mt", "group mt\ngens a b t\nrel t a t^-1 b^-1\nrel t b t^-1 b^-1 a^-1\n"),
])
def test_projected_verdicts_match_laurent_field_ranks(name, src):
    P = parse_presentation(src)
    q = nilpotent_quotient(P, 1)
    cx = fox_complex(P, q, QQ, project=True)
    rk1, rk2 = _generic_ranks(cx, SEEDS[name])
    r0, r1, r2 = cx.ranks
    expected_h = {0: r0 - rk1, 1: r1 - rk1 - rk2, 2: r2 - rk2}

    nlv = q.target.nlevels
    chi = MultiChar(q.target, [[1] + [0] * (len(q.target.level_gens[i]) - 1)
                               for i in range(nlv)])
    for signs in ([1] * nlv, [-1] * nlv):
        rep = nov_cohomology(cx, chi, 2, Trunc([8] * nlv, 48), signs=signs)
        for d in (0, 1, 2):
            assert rep.h[d] == expected_h[d], (name, signs, d, rep.h, expected_h)
            assert (rep.verdicts[d] == VANISHES) == (expected_h[d] == 0)


def _relator_letters(fpg_text):
    """The single relator of an .fpg text as letters (generator name, +-1)."""
    (line,) = [ln for ln in fpg_text.splitlines() if ln.startswith("rel ")]
    letters = []
    for tok in line.split()[1:]:
        name, _, e = tok.partition("^")
        e = int(e or 1)
        letters += [(name, 1 if e > 0 else -1)] * abs(e)
    return letters


def fox_unit_oracle(letters, chi):
    """True when some Fox derivative of the reduced relator has a unique
    minimal-degree free word.  The letter x at position p contributes
    +w[:p] to dr/dx, and x^-1 contributes -w[:p+1]; in a reduced word these
    words are pairwise distinct, so no terms cancel."""
    prefix = [0]
    for g, e in letters:
        prefix.append(prefix[-1] + e * chi[g])
    for x in {g for g, _ in letters}:
        degs = [prefix[p] if e > 0 else prefix[p + 1]
                for p, (g, e) in enumerate(letters) if g == x]
        if degs.count(min(degs)) == 1:
            return True
    return False


@pytest.mark.parametrize("name,mchar,fires", [
    ("bs12", "chi_z", {"+": False, "-": True}),
    ("torus", "chi_torus", {"+": True, "-": True}),
    ("mapping_torus_1rel", "chi_z", {"+": True, "-": True}),
    ("parafree", "chi_parafree_c", {"+": True, "-": True}),
])
def test_fox_unit_oracle_agrees_with_exact_vanishing(name, mchar, fires):
    text = (DATA / f"{name}.fpg").read_text()
    P = parse_presentation(text)
    q = nilpotent_quotient(P, 1)
    chi = parse_mchar((DATA / f"{mchar}.mchar").read_text(), q.target)
    on_gens = {g: chi.deg(q.images[i])[0] for i, g in enumerate(P.gen_names)}
    cx = fox_complex(P, q, QQ, project=False)
    for sign, label in ((1, "+"), (-1, "-")):
        signed = {g: sign * v for g, v in on_gens.items()}
        assert fox_unit_oracle(_relator_letters(text), signed) == fires[label]
        if fires[label]:
            rep = nov_cohomology(cx, chi, 2, Trunc([8], 48), signs=[sign])
            assert rep.verdicts[2] == VANISHES and rep.exact, (name, label)
