"""Truncated Novikov-ring arithmetic with certified inversion.

Series are kept as finite bodies plus an explicit O(frontier) tail.  An
inverse is produced by the geometric-series decomposition beta =
(1 - beta_plus) beta_0 and is never returned without verifying that
beta * gamma - 1 and gamma * beta - 1 exit the frontier box; there is no
a-priori degree calculus across levels, the certificate is the whole story.
"""

import pathlib

from nilnov import (GroupRing, MultiChar, NovContext, QQ, Trunc, expand,
                    format_series, nov_invert, parse_mchar, parse_pc, ring_mul,
                    series_from_elt)
from nilnov.errors import NoStrictMinimum, TruncationInsufficient
from nilnov.fracparse import parse_fraction_expr
from nilnov.novikov import beyond_frontier

DATA = pathlib.Path(__file__).parent / "data"

Z = parse_pc((DATA / "z.pcg").read_text())
RZ = GroupRing(Z, QQ)
chi_z = parse_mchar((DATA / "chi_z.mchar").read_text(), Z)

ctx = NovContext(chi_z, Trunc([5], 10))
beta = series_from_elt(ctx, RZ.parse("1 - t"))
gamma = nov_invert(beta)
print("(1 - t)^-1 =", format_series(gamma))

# The same element fails when the character kills t: both support points
# sit at degree zero and no strict minimum exists.
try:
    nov_invert(series_from_elt(NovContext(MultiChar(Z, [[0]]), Trunc([5], 10)),
                               RZ.parse("1 - t")))
except NoStrictMinimum as e:
    print("chi(t) = 0:", e)

# Too small a cap on the geometric series is refused, not fudged.
try:
    nov_invert(series_from_elt(NovContext(chi_z, Trunc([64], 3)), RZ.parse("1 - t")))
except TruncationInsufficient as e:
    print("m_max 3 at frontier 64:", str(e).split(";")[0])

print()
H3 = parse_pc((DATA / "heis.pcg").read_text())
RH = GroupRing(H3, QQ)
chi_h = parse_mchar((DATA / "chi_h3.mchar").read_text(), H3)

ctx_h = NovContext(chi_h, Trunc([3, 3], 12))
beta_h = series_from_elt(ctx_h, RH.parse("1 - a - c"))
gamma_h = nov_invert(beta_h)
print("(1 - a - c)^-1 =", format_series(gamma_h))
left = ring_mul(beta_h.body, gamma_h.body) - RH.one()
right = ring_mul(gamma_h.body, beta_h.body) - RH.one()
print("residuals beyond the frontier box:",
      beyond_frontier(ctx_h, left), beyond_frontier(ctx_h, right))

print()
print("iterated fraction whose denominator coefficient is itself a fraction:")
frac = parse_fraction_expr("(1 - (1 - c)^-1 a)^-1", RH)
result = expand(frac, chi_h, Trunc([3, 4], 16))
print("expanded:", format_series(result))

finer = expand(frac, chi_h, Trunc([4, 6], 24))
agree = all(finer.body.terms.get(g) == cf for g, cf in result.body.terms.items()
            if ctx_h.trunc.retains(NovContext(chi_h, Trunc([3, 4], 16)).deg(g)))
print("finer frontier agrees on all retained terms:", agree)
