"""The sign-sweep vanishing criterion, end to end.

Vanishing top-degree Novikov cohomology for every sign pattern of a
multicharacter on a nilpotent quotient certifies (at truncation) that the
kernel of the quotient map has strictly smaller cohomological dimension.
The matrices keep free-group-word entries with degrees pulled back along
the quotient map, so every certificate is valid over the group ring itself.
"""

import pathlib

from nilnov import (MultiChar, QQ, QuotientMap, Trunc, fox_complex,
                    nilpotent_quotient, nov_cohomology, parse_presentation,
                    theorem_f)
from nilnov.presentations import free_abelian_group

DATA = pathlib.Path(__file__).parent / "data"

# 1. The mapping torus of F_2 under a -> b, b -> ab: its kernel is free of
#    rank 2, so a dimension drop from 2 to 1 is certified by the sweep.
mt = parse_presentation((DATA / "mapping_torus.fpg").read_text())
q = nilpotent_quotient(mt, 1)
chi = MultiChar(q.target, [[1]])
verdict = theorem_f(mt, q, chi, 2, Trunc([8], 48))
print("mapping torus, degree 2, full sweep:")
for rep in verdict.reports:
    print(f"  pattern {rep.pattern}: {rep.verdicts[2]} (stable={rep.stable})")
print("conclusion:", verdict.conclusion)
print()

# 2. A free group mapped onto Z kills a generator; the dual class of the
#    killed generator survives in degree 1 and the criterion reports the
#    obstruction with an explicit witness.
f2 = parse_presentation((DATA / "f2.fpg").read_text())
Z = free_abelian_group(["u"])
onto_z = QuotientMap(f2, Z, [Z.generator(0), ()])
verdict = theorem_f(f2, onto_z, MultiChar(Z, [[1]]), 1, Trunc([8], 48))
print("F_2 onto Z, degree 1:")
for rep in verdict.reports:
    print(f"  pattern {rep.pattern}: {rep.verdicts[1]}; witness {rep.witnesses.get(1)}")
print("conclusion:", verdict.conclusion)
print()

# 3. BS(1,2) is one-sided: the ascending relation t a t^-1 = a^2 makes one
#    direction certify vanishing while the other stalls on a group-ring
#    coefficient that is not a unit (an honest inconclusive, with the
#    offending column named, never a fabricated witness).
bs = parse_presentation((DATA / "bs12.fpg").read_text())
qb = nilpotent_quotient(bs, 1)
cx = fox_complex(bs, qb, QQ, project=False)
chi_b = MultiChar(qb.target, [[1]])
for signs, label in (([1], "+"), ([-1], "-")):
    rep = nov_cohomology(cx, chi_b, 1, Trunc([6], 32), signs=signs)
    extra = rep.obstructions.get(1, "")
    print(f"BS(1,2) degree 1, pattern {label}: {rep.verdicts[1]}"
          f" (stable={rep.stable}) {extra}")
