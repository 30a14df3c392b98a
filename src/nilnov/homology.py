"""(Co)homology of presentation complexes: exact fields and Novikov rings.

Field Betti numbers come from exact Gaussian elimination on the augmented
matrices.  Novikov verdicts come from a Smith-style elimination that inverts
candidates in the order of their unique lexicographically minimal terms and
pivots on the first certified inverse.  A nonvanishing witness is only
reported when the elimination fully diagonalized: the leftover coordinate
then carries an explicit cocycle that certifiably cannot be a coboundary
below the frontier.  A stalled elimination is reported as inconclusive with
its first failure in (column, row) order, never as a verdict.  A clearing
step whose certificate fails stalls the same way: its pattern is
inconclusive, with the failed step, the entry and the lex-minimal degree of
the residual inside the frontier as the obstruction.  H^0 is never a
witness: d1 always pivots or stalls (see `_Elimination.eliminate_d1`).
A d1 stall of either kind leaves H^0 and H^1 inconclusive, and the d2
stage still runs: H^2 = coker d2* depends on d2 alone.

Exact vanishing for one-level characters.  With one level the degree is a
real valuation v on the group ring: v(xy) >= v(x) + v(y), and an element
whose minimal degree is attained by one term c g alone is a Novikov unit,
(c g (1 - y))^-1 = (1 + y + y^2 + ...) g^-1 c^-1 with v(y) > 0.  The
d2 stage applies each row operation to every column of M2, and each P1
base change to every row of M2 and to A, which accumulates them.  Their
multipliers are finite ring elements (entries times truncated pivot
inverses), so every operation is exact and invertible over the group
ring.  With L the product of the row operations (never stored),
M2 = L d2 A, which is d2 in other bases, apart from column i0 of the d1
pivot: the d1 stage certifies that column and zeroes it, and no pivot
lies on it.  `pivot_block_is_unit` reads M2 and checks,
for each d2 pivot (r_k, c_k), that M2[r_k][c_k] has a unique
minimal-degree term, of degree v_k, and that every other entry
M2[r_k][c_j] on a pivot column has all of its terms of degree > v_k.
The pivot block is then B = U (I + N), with U the diagonal of units
M2[r_k][c_k] and every entry of N = U^-1 (B - U) of valuation at
least some eps > 0, so B is invertible by the convergent series
sum (-N)^m (the standard unit argument; see Kielak, "The Bieri-Neumann-
Strebel invariants via Newton polytopes", Invent. Math. 219, 2020).
Hence, when the elimination completed without a stall or a
failed certificate, each vanishing verdict holds over the Novikov ring:

- H^0 = 0 when d1 has a pivot: that entry g - 1 is a unit.
- H^2 = 0 when rank2 = r2: every row is a pivot row.
- H^1 = 0 when r1 - rank1 - rank2 = 0.  Clearing d1 with the exact
  inverse of its pivot p is the P1 base change column i0 += column r *
  (x_r p^-1) over the other d1 entries x_r.  It moves only column i0 of
  M2 and A (no other column of A is nonzero in row i0), which the d2
  stage neither reads nor writes and the certificate never uses, so it is
  left virtual.  Over the Novikov ring d1 becomes p e_i0 and, since
  d2 d1 = 0 in the presented group's ring, column i0 of the exact
  L d2 A vanishes.  Then the pivot columns are all the other columns, B is
  invertible on them and p is a unit on i0, so P2 -> P1 -> P0 is exact at P1.

The truncated pivot inverses, and the frontier widening of
`novikov.widened_context` that decides how far they are expanded, do not
enter this argument: they only choose the multipliers of exact row and
column operations, and the certificate reads the pivot block itself.  On
free words the check is sound too: the degrees of a free-group-ring
element's words bound the degrees of its image in the presented group's
ring from below, and a unique minimal free word stays a unique minimal
term there.
`nov_cohomology` marks a report whose verdict at its degree vanishes under
this check `exact`, and makes no re-run for it.  With two or more levels
the box frontier is not a valuation bound (a term beyond the box can be
lex-smaller than a pivot), so those verdicts, like every witness, stay "at
truncation" and are re-run at a doubled frontier for `stable`.  An
inconclusive verdict asserts nothing, so it is not re-run.  The re-run
checks one verdict, the one at `degree`: it formats no witness cocycle,
since witnesses belong to the report that `nov_cohomology` returns.
"""

import itertools

from .errors import (DimensionMismatch, InconsistentReport, MismatchedCharacter,
                     MismatchedGroup, NoStrictMinimum, TruncationInsufficient)
from .fields import QQ, rank
from .groupring import augment, ring_mul
from .novikov import (NovContext, NovSeries, beyond_frontier, format_degree,
                      least_inside, minimal_term, nov_invert, widened_context)
from .presentations import fox_complex

VANISHES = "vanishes-at-truncation"
WITNESS = "nonvanishing-witness"
INCONCLUSIVE = "inconclusive"

CD_DROP = "cd-drop-certified-at-truncation"
OBSTRUCTION = "obstruction-found"


class RankReport:
    def __init__(self, h):
        self.h = h                  # degree -> dimension, None when undetermined
        self.verdicts = {}          # degree -> verdict string (Novikov reports)
        self.pattern = None
        self.degree = None          # the degree that `stable` and `exact` speak of
        self.stable = None          # None when there was no re-run
        self.exact = False          # vanishing at `degree` proved over the Novikov ring
        self.witnesses = {}         # degree -> formatted witness cocycle
        self.obstructions = {}      # degree -> description of the stall

    @property
    def betti(self):
        return [self.h[d] for d in sorted(self.h)]

    def alternating_sum(self):
        if None in self.h.values():
            return None
        return sum((-1) ** d * v for d, v in self.h.items())

    def describe_lines(self):
        lines = []
        for d in sorted(self.verdicts):
            extra = ""
            if d in self.witnesses:
                extra = f" witness={self.witnesses[d]}"
            if d in self.obstructions:
                extra = f" obstruction={self.obstructions[d]}"
            hd = self.h[d]
            stable = ""
            if d == self.degree and self.stable is not None:
                stable = f", stable={self.stable}"
            lines.append(f"H^{d} [{self.pattern}]: {self.verdicts[d]}"
                         f" (h={'?' if hd is None else hd}{stable}){extra}")
        return lines


class CriterionVerdict:
    def __init__(self, reports, conclusion):
        self.reports = reports
        self.conclusion = conclusion


# -- field Betti numbers ---------------------------------------------------

def betti(cx, field):
    """Betti numbers of the complex with trivial field coefficients."""
    r0, r1, r2 = cx.ranks
    a1 = [[augment(e)] for e in cx.d1]            # r1 x 1
    a2 = [[augment(e) for e in row] for row in cx.d2]  # r2 x r1
    rk1 = rank(a1, field)
    rk2 = rank(a2, field)
    h = {0: r0 - rk1, 1: r1 - rk1 - rk2}
    if r2:
        h[2] = r2 - rk2
    return RankReport(h)


def sign_patterns(n):
    """The 2^n sign patterns of an n-level multicharacter, all-plus first."""
    return list(itertools.product((1, -1), repeat=n))


def pattern_label(signs):
    """A sign pattern written as a string of '+' and '-', one per level."""
    return "".join("+" if s > 0 else "-" for s in signs)


# -- Novikov elimination ---------------------------------------------------

class _Elimination:
    """Smith-style sweep over the 3-term complex at one truncation.

    All matrix arithmetic is exact on finite bodies (only the pivot
    inverses are truncated series); every clearing step is certified
    against the frontier, so a completed sweep is a truncation-sound
    diagonalization, and M2 and A hold it exactly.  Both stages share one
    pivot chooser; the d1 stage searches d1 as given and only certifies its
    clearing.  A missing pivot or a failed certificate ends a stage with a
    stall.
    """

    def __init__(self, cx, chi, trunc):
        if cx.qmap is None or chi.group is not cx.qmap.target:
            raise MismatchedGroup("the multicharacter must live on the complex's quotient group")
        self.cx = cx
        self.ctx = NovContext(chi, trunc, None if cx.projected else cx.qmap.apply_word)
        self.M2 = [list(row) for row in cx.d2]
        r1 = cx.ranks[1]
        one, zero = cx.ring.one(), cx.ring.zero()
        # accumulated P1 base change A (original = A * final coordinates)
        self.A = [[one if i == j else zero for j in range(r1)] for i in range(r1)]
        self.rank1 = 0
        self.pivots2 = []           # d2 pivots (row, column), in elimination order
        self.consumed_cols = set()
        self.stall1 = None
        self.stall2 = None

    def _choose_pivot(self, cells):
        """The least (minimal degree, column, row) entry among `cells`
        (triples column, row, entry) whose inverse certifies, as
        (column, row, inverse body), or None and the stall: the first failure
        (column, row, reason) in (column, row) order.  Candidates are inverted
        in rank order; entries beyond the frontier count as zero."""
        ranked, failed = [], []
        for c, r, e in cells:
            if beyond_frontier(self.ctx, e):
                continue
            try:
                ranked.append(((minimal_term(self.ctx, e)[2], c, r), e))
            except NoStrictMinimum as err:
                failed.append((c, r, str(err)))
        if not ranked:  # nothing to invert: the frontier need not be widened
            return None, min(failed, default=None)
        # multiplying a cleared residual by an entry may lower degrees by the
        # matrices' negative depth, and the result must still certify
        inv_ctx = widened_context(self.ctx, [*self.cx.d1, *(e for row in self.M2 for e in row)])
        for (_, c, r), e in sorted(ranked, key=lambda t: t[0]):
            try:
                return (c, r, nov_invert(NovSeries(inv_ctx, e)).body), None
            except NoStrictMinimum as err:
                failed.append((c, r, str(err)))
            except TruncationInsufficient:
                failed.append((c, r, "certificate exhausted m_max"))
        return None, min(failed, default=None)

    def _certify(self, step, r, c, residual):
        """None when the residual is beyond the frontier; otherwise the stall,
        naming the step, the entry and the residual's lex-minimal degree
        inside the frontier."""
        degree = least_inside(self.ctx, residual)
        if degree is None:
            return None
        return (f"{step} failed its certificate at row {r}, column {c}: "
                f"residual degree {format_degree(degree)} inside the frontier")

    @property
    def rank2(self):
        return len(self.pivots2)

    def _unused_rows(self):
        used = {r for r, _ in self.pivots2}
        return [r for r in range(len(self.M2)) if r not in used]

    def _clear_column(self, rows, r0, c0, pinv):
        """Clear column c0 of M2 on `rows` off the pivot (r0, c0) by the row
        operations row_r -= (M2[r][c0] pinv) row_r0 on every column.  None, or
        the first stall."""
        for r in rows:
            row = self.M2[r]
            if r == r0 or beyond_frontier(self.ctx, row[c0]):
                continue
            f = ring_mul(row[c0], pinv)
            for j, y in enumerate(self.M2[r0]):
                row[j] = row[j] - ring_mul(f, y)
            stall = self._certify("column clearing", r, c0, row[c0])
            if stall:
                return stall
        return None

    # -- stage 1: the column d1

    def eliminate_d1(self):
        """Pivot d1 and certify its virtual clearing, or stall; d2 runs
        either way (see _run_elimination).  d1 pivots or stalls: g - 1 keeps
        its identity term, of degree 0, in the box unless it is projected and
        g maps to 1, and QuotientMap refuses a map that is not onto."""
        pivot, stall = self._choose_pivot((0, i, e) for i, e in enumerate(self.cx.d1))
        if pivot is None:
            self.stall1 = f"row {stall[1]}: {stall[2]}"
        else:
            self.stall1 = self._certify_d1(*pivot[1:])

    def _certify_d1(self, i0, pinv):
        """Certify clearing d1 off its pivot p = g - 1 by the residual
        e = p p^-1 - 1 (p^-1, a series in g, commutes with p): row r would
        keep x - (x p^-1) p = -x e, and M2[j][i0] would keep
        (row_j . d1) p^-1 - d2[j][i0] e, where row_j . d1 = r_j - 1 is zero in
        the presented group's ring.  Once all pass, column i0 is consumed and
        zeroed in M2.  None, or the first stall; none at one level, where
        nov_invert certified e beyond the frontier widened by every entry's
        depth."""
        e = ring_mul(self.cx.d1[i0], pinv) - self.cx.ring.one()
        for r, x in enumerate(self.cx.d1):
            if r == i0 or beyond_frontier(self.ctx, x):
                continue
            stall = self._certify("clearing", r, 0, -ring_mul(x, e))
            if stall:
                return stall
        for j, row in enumerate(self.cx.d2):
            stall = self._certify("column check", j, i0, ring_mul(row[i0], e))
            if stall:
                return stall
        for row in self.M2:
            row[i0] = self.cx.ring.zero()
        self.rank1 = 1
        self.consumed_cols.add(i0)
        return None

    # -- stage 2: the block M2 on active columns

    def eliminate_d2(self):
        while True:
            rows = self._unused_rows()
            cols = [c for c in range(self.cx.ranks[1]) if c not in self.consumed_cols]
            pivot, stall = self._choose_pivot((c, r, self.M2[r][c]) for c in cols for r in rows)
            if pivot is None:
                if stall:  # without a stall, the residual block is certified zero
                    self.stall2 = f"column {stall[0]}: {stall[2]}"
                return
            c0, r0, pinv = pivot
            self.stall2 = (self._clear_column(rows, r0, c0, pinv)
                           or self._clear_row(r0, c0, pinv, cols))
            if self.stall2:
                return
            self.consumed_cols.add(c0)
            self.pivots2.append((r0, c0))

    def _clear_row(self, r0, c0, pinv, cols):
        """Clear row r0 of M2 off the pivot by P1 base changes on M2 and A
        (d1's other rows are cleared virtually, or only H^2 is read).  None,
        or the first stall."""
        row = self.M2[r0]
        for j in cols:
            if j == c0 or beyond_frontier(self.ctx, row[j]):
                continue
            x = -ring_mul(pinv, row[j])
            for line in self.M2 + self.A:
                line[j] = line[j] + ring_mul(line[c0], x)
            stall = self._certify("row clearing", r0, j, row[j])
            if stall:
                return stall
        return None

    def vanishing_is_exact(self):
        """True when the completed elimination proves its vanishing verdicts
        over the Novikov ring itself (see the module docstring)."""
        return (self.ctx.chi.group.nlevels == 1
                and self.stall1 is None and self.stall2 is None
                and pivot_block_is_unit(self.ctx, self.M2, self.pivots2))


def pivot_block_is_unit(ctx, T, pivots):
    """Whether the pivot block of the matrix T is a diagonal of units times
    I + (positive valuation): each pivot entry T[r_k][c_k] has a unique
    minimal-degree term, of degree v_k, and every other entry T[r_k][c_j]
    on a pivot column has all of its terms of degree > v_k."""
    for r, c in pivots:
        try:
            _, _, v = minimal_term(ctx, T[r][c])
        except NoStrictMinimum:
            return False
        if any(ctx.deg(g) <= v for _, cj in pivots if cj != c for g in T[r][cj].terms):
            return False
    return True


def _run_elimination(cx, chi, trunc):
    """One elimination at one truncation, and its verdicts and obstructions.

    A d1 stall of either kind leaves H^0 and H^1 inconclusive; d2 still
    runs, and alone decides H^2."""
    elim = _Elimination(cx, chi, trunc)
    elim.eliminate_d1()
    elim.eliminate_d2()
    ok1, ok2 = elim.stall1 is None, elim.stall2 is None
    r0, r1, r2 = cx.ranks
    report = RankReport({0: r0 - elim.rank1 if ok1 else None,
                         1: r1 - elim.rank1 - elim.rank2 if ok1 and ok2 else None,
                         2: r2 - elim.rank2 if ok2 else None})
    for d, hd in report.h.items():
        if hd is None:
            report.verdicts[d] = INCONCLUSIVE
            report.obstructions[d] = (f"d2: {elim.stall2}" if elim.stall2 and d
                                      else f"d1: {elim.stall1}")
        elif hd == 0:
            report.verdicts[d] = VANISHES
        else:
            report.verdicts[d] = WITNESS
    return elim, report


def _describe_witness(cx, elim, degree):
    if degree == 2:
        rows = elim._unused_rows()
        return f"dual basis cocycle of relator row(s) {rows}"
    cols = [c for c in range(cx.ranks[1]) if c not in elim.consumed_cols]
    parts = []
    for c in cols:
        comps = [f"e{r}*[{row[c]}]" for r, row in enumerate(elim.A) if not row[c].is_zero()]
        parts.append("col %d: %s" % (c, " + ".join(comps) if comps else "0"))
    return "; ".join(parts)


def nov_cohomology(cx, chi, degree, trunc, signs=None):
    """Novikov cohomology verdicts of the complex at the given truncation.

    `signs` flips multicharacter components (the +-chi sweep).  A vanishing
    verdict at `degree` whose elimination passes the exact certificate is
    marked exact and stable.  An inconclusive verdict asserts nothing, so it
    is not re-run and `stable` stays None.  Every other verdict at `degree`
    is re-computed at a doubled frontier, and the stability flag records
    whether it survived.  Witnesses are formatted for the returned report.
    """
    if degree not in (0, 1, 2):
        raise DimensionMismatch(f"degree {degree} outside 0..2")
    if chi.is_zero():
        raise MismatchedCharacter("the zero multicharacter is not allowed")
    if signs is None:
        signs = [1] * chi.group.nlevels
    work_chi = chi.with_signs(signs)
    elim, report = _run_elimination(cx, work_chi, trunc)
    report.pattern = pattern_label(signs)
    report.degree = degree
    report.witnesses = {d: _describe_witness(cx, elim, d)
                        for d, v in report.verdicts.items() if v == WITNESS}
    if report.verdicts[degree] == VANISHES and elim.vanishing_is_exact():
        report.exact = report.stable = True
        return report
    if report.verdicts[degree] == INCONCLUSIVE:
        return report
    _, report2 = _run_elimination(cx, work_chi, trunc.doubled())
    report.stable = report2.verdicts[degree] == report.verdicts[degree]
    return report


def theorem_f(presentation, qmap, chi, degree, trunc, field=None):
    """Sign-sweep criterion: vanishing top Novikov cohomology for all 2^n
    patterns certifies (at truncation) the cohomological-dimension drop of
    the kernel of the quotient map.  The criterion speaks of the top degree
    only: vanishing below it says nothing about the kernel's dimension.
    """
    top = top_degree(presentation)
    if degree != top:
        raise DimensionMismatch(f"degree {degree} is not the top degree {top} of this complex")
    cx = fox_complex(presentation, qmap, field or QQ, project=False)
    reports = [nov_cohomology(cx, chi, degree, trunc, signs=signs)
               for signs in sign_patterns(chi.group.nlevels)]
    if all(r.verdicts[degree] == VANISHES and r.stable for r in reports):
        conclusion = CD_DROP
    elif any(r.verdicts[degree] == WITNESS for r in reports):
        conclusion = OBSTRUCTION
    else:
        conclusion = INCONCLUSIVE
    return CriterionVerdict(reports, conclusion)


def top_degree(presentation):
    """The top degree of the presentation complex: 2 with relators, else 1."""
    return 2 if presentation.relators else 1


def euler_check(cx, reports):
    """Alternating rank sums of all reports must equal chi(C); reports with
    undetermined degrees are skipped (they assert nothing).  Bookkeeping:
    betti and nov_cohomology set h = (r0 - rank1, r1 - rank1 - rank2,
    r2 - rank2), whose alternating sum is chi(C) for any ranks, so only a
    hand-made report raises InconsistentReport."""
    target = cx.euler_characteristic()
    for report in reports:
        total = report.alternating_sum()
        if total is None:
            continue
        if total != target:
            raise InconsistentReport(
                f"report sums to {total}, complex has Euler characteristic {target}")
    return True
