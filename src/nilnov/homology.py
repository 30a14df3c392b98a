"""(Co)homology of presentation complexes: exact fields and Novikov rings.

Field Betti numbers come from exact Gaussian elimination on the augmented
matrices.  Novikov verdicts come from a Smith-style elimination in which a
pivot must have a unique lexicographically minimal term and a certified
inverse; every verdict is "at truncation" and is re-run at a doubled
frontier for stability.  A nonvanishing witness is only reported when the
elimination fully diagonalized: the leftover coordinate then carries an
explicit cocycle that certifiably cannot be a coboundary below the
frontier.  A stalled elimination is reported as inconclusive together with
the offending column, never as a verdict.
"""

import itertools
from fractions import Fraction

from .errors import (DimensionMismatch, InconsistentReport, NoStrictMinimum,
                     TruncationInsufficient)
from .fields import QQ, rank
from .groupring import augment, ring_mul
from .novikov import (NovContext, NovSeries, Trunc, beyond_frontier,
                      minimal_term, nov_invert)
from .presentations import fox_complex

VANISHES = "vanishes-at-truncation"
WITNESS = "nonvanishing-witness"
INCONCLUSIVE = "inconclusive"

CD_DROP = "cd-drop-certified-at-truncation"
OBSTRUCTION = "obstruction-found"


class RankReport:
    def __init__(self, kind, ranks):
        self.kind = kind            # "field" | "novikov"
        self.ranks = ranks          # module ranks (r0, r1, r2)
        self.betti = None           # field mode
        self.field = None
        self.h = {}                 # degree -> dimension or None
        self.verdicts = {}          # degree -> verdict string (novikov mode)
        self.pattern = None
        self.frontier = None
        self.frontier2 = None
        self.stable = None
        self.witnesses = {}         # degree -> formatted witness cocycle
        self.obstructions = {}      # degree -> description of the stall
        self.elim_ranks = {}        # boundary index -> certified rank

    def alternating_sum(self):
        if self.kind == "field":
            return sum((-1) ** i * b for i, b in enumerate(self.betti))
        if any(v is None for v in self.h.values()) or len(self.h) < 3:
            return None
        return sum((-1) ** d * v for d, v in self.h.items())

    def describe_lines(self):
        lines = []
        if self.kind == "field":
            lines.append(f"betti {self.field}: " + " ".join(str(b) for b in self.betti))
            return lines
        for d in sorted(self.verdicts):
            extra = ""
            if d in self.witnesses:
                extra = f" witness={self.witnesses[d]}"
            if d in self.obstructions:
                extra = f" obstruction={self.obstructions[d]}"
            hd = self.h.get(d)
            lines.append(f"H^{d} [{self.pattern}]: {self.verdicts[d]}"
                         f" (h={'?' if hd is None else hd}, stable={self.stable}){extra}")
        return lines


class CriterionVerdict:
    def __init__(self, degree, patterns, reports, conclusion, trunc):
        self.degree = degree
        self.patterns = patterns
        self.reports = reports
        self.conclusion = conclusion
        self.trunc = trunc


# -- field Betti numbers ---------------------------------------------------

def betti(cx, field):
    """Betti numbers of the complex with trivial field coefficients."""
    r0, r1, r2 = cx.ranks
    a1 = [[augment(e)] for e in cx.d1]            # r1 x 1
    a2 = [[augment(e) for e in row] for row in cx.d2]  # r2 x r1
    rk1 = rank(a1, field)
    rk2 = rank(a2, field)
    report = RankReport("field", cx.ranks)
    report.field = field
    bs = [r0 - rk1, r1 - rk1 - rk2]
    if r2:
        bs.append(r2 - rk2)
    report.betti = bs
    report.h = {i: b for i, b in enumerate(bs)}
    report.elim_ranks = {1: rk1, 2: rk2}
    return report


# -- Novikov elimination ---------------------------------------------------

def _entry_status(ctx, elt, inv_ctx):
    """('zero', None) | ('pivot', inverse body) | ('stuck', reason) | ('trunc', None)

    Matrix entries are exact ring elements; an entry all of whose terms sit
    at or beyond the frontier counts as zero at truncation.  Inverses are
    computed at the widened `inv_ctx` so that clearing entries with
    negative-degree terms still certifies at the reporting frontier.
    """
    if beyond_frontier(ctx, elt):
        return ("zero", None)
    try:
        minimal_term(ctx, elt)
    except NoStrictMinimum as e:
        return ("stuck", str(e))
    try:
        inv = nov_invert(NovSeries(inv_ctx, elt))
        return ("pivot", inv.body)
    except TruncationInsufficient:
        return ("trunc", None)


class _Elimination:
    """Smith-style sweep over the 3-term complex at one truncation.

    All matrix arithmetic is exact on finite bodies (only the pivot
    inverses are truncated series); every clearing step is certified
    against the frontier, so a completed sweep is a truncation-sound
    diagonalization.
    """

    def __init__(self, cx, chi, trunc):
        self.cx = cx
        self.chi = chi
        project = None
        if not cx.projected:
            if cx.qmap is None:
                raise ValueError("free-entry complex needs a quotient map for degrees")
            if chi.group is not cx.qmap.target:
                raise ValueError("multicharacter lives on the wrong group")
            project = cx.qmap.apply_word
        elif chi.group is not cx.ring.group:
            raise ValueError("multicharacter lives on the wrong group")
        self.ctx = NovContext(chi, trunc, project)
        ring = cx.ring
        self.ring = ring
        self.M1 = list(cx.d1)
        self.M2 = [list(row) for row in cx.d2]
        # exact value of (row j of d2) . d1: zero over the quotient ring, and
        # r_j - 1 over the free ring (the Fox identity); the d1 stage uses it
        # to recognize the consumed column as zero in the presented group's
        # ring even though free words cannot cancel it.
        self.composite = []
        for j in range(cx.ranks[2]):
            if cx.projected:
                self.composite.append(ring.zero())
            else:
                self.composite.append(
                    ring.monomial(ring.field.one, cx.presentation.relators[j]) - ring.one())
        r1 = cx.ranks[1]
        one, zero = ring.one(), ring.zero()
        # accumulated P1 base change A (original = A * final coordinates)
        self.A = [[one if i == j else zero for j in range(r1)] for i in range(r1)]
        self.rank1 = 0
        self.rank2 = 0
        self.consumed_cols = set()
        self.used_rows = set()
        self.stall1 = None
        self.stall2 = None
        self.trunc_trouble = False

    def _zero_at_trunc(self, elt):
        return beyond_frontier(self.ctx, elt)

    def _inv_ctx(self):
        """Context for pivot inversion, widened by the negative degree depth
        present in the current matrices: multiplying a cleared residual by
        such an entry may lower degrees by that much, and the result must
        still certify at the reporting frontier."""
        n = len(self.ctx.trunc.frontier)
        slack = [Fraction(0)] * n
        for elt in list(self.M1) + [e for row in self.M2 for e in row]:
            for g in elt.terms:
                d = self.ctx.deg(g)
                for i in range(n):
                    if -d[i] > slack[i]:
                        slack[i] = -d[i]
        t = self.ctx.trunc
        return self.ctx.with_trunc(Trunc([a + b for a, b in zip(t.frontier, slack)], t.m_max))

    # -- stage 1: the column M1

    def eliminate_d1(self):
        inv_ctx = self._inv_ctx()
        candidates = []
        for i, e in enumerate(self.M1):
            status, inv = _entry_status(self.ctx, e, inv_ctx)
            if status == "pivot":
                _, _, deg = minimal_term(self.ctx, e)
                candidates.append((deg, i, inv))
            elif status == "trunc":
                self.trunc_trouble = True
        if not candidates:
            if all(self._zero_at_trunc(e) for e in self.M1):
                self.rank1 = 0
                return True  # certified zero map
            self.stall1 = "no invertible entry in d1"
            return False
        candidates.sort(key=lambda t: (t[0], t[1]))
        _, i0, pinv = candidates[0]
        p = self.M1[i0]
        for i in range(len(self.M1)):
            if i == i0:
                continue
            e = self.M1[i]
            if self._zero_at_trunc(e):
                continue
            c = ring_mul(e, pinv)
            # row op on M1: row_i -= c * row_i0   (A^-1 acting on the left)
            self.M1[i] = e - ring_mul(c, p)
            if not self._zero_at_trunc(self.M1[i]):
                raise TruncationInsufficient("d1 clearing left sub-frontier residue")
            # inverse op on A:  A <- A * (I + E_{i,i0} c)
            for r in range(len(self.A)):
                self.A[r][i0] = self.A[r][i0] + ring_mul(self.A[r][i], c)
            # and on M2: col i0 += col i * c
            for row in self.M2:
                row[i0] = row[i0] + ring_mul(row[i], c)
        self.rank1 = 1
        self.consumed_cols.add(i0)
        # The consumed column of M2 is zero in the presented group's ring:
        # row_j . d1 equals composite_j exactly, the other d1 entries are
        # certified zero, so the column entry must agree with
        # composite_j * p^-1 below the frontier.  Verify, then zero it.
        zero = self.ring.zero()
        for j, row in enumerate(self.M2):
            expected = ring_mul(self.composite[j], pinv)
            if not beyond_frontier(self.ctx, row[i0] - expected):
                raise TruncationInsufficient(
                    f"column {i0} of d2 did not clear after the d1 stage")
            row[i0] = zero
        return True

    # -- stage 2: the block M2 on active columns

    def eliminate_d2(self):
        nrows = len(self.M2)
        ncols = self.cx.ranks[1]
        while True:
            inv_ctx = self._inv_ctx()
            candidates = []
            stuck_cols = {}
            for c in range(ncols):
                if c in self.consumed_cols:
                    continue
                for r in range(nrows):
                    if r in self.used_rows:
                        continue
                    e = self.M2[r][c]
                    status, data = _entry_status(self.ctx, e, inv_ctx)
                    if status == "pivot":
                        _, _, deg = minimal_term(self.ctx, e)
                        candidates.append((deg, c, r, data))
                    elif status == "stuck":
                        stuck_cols.setdefault(c, data)
                    elif status == "trunc":
                        self.trunc_trouble = True
                        stuck_cols.setdefault(c, "certificate exhausted m_max")
            if not candidates:
                if stuck_cols:
                    col = min(stuck_cols)
                    self.stall2 = f"column {col}: {stuck_cols[col]}"
                    return False
                return True  # residual block certified zero
            candidates.sort(key=lambda t: (t[0], t[1], t[2]))
            _, c0, r0, pinv = candidates[0]
            self._pivot_step(r0, c0, pinv)

    def _pivot_step(self, r0, c0, pinv):
        nrows = len(self.M2)
        ncols = self.cx.ranks[1]
        # clear the column with row ops (P2 base change, nothing adjacent)
        for r in range(nrows):
            if r == r0 or r in self.used_rows:
                continue
            e = self.M2[r][c0]
            if self._zero_at_trunc(e):
                continue
            f = ring_mul(e, pinv)
            for j in range(ncols):
                if j in self.consumed_cols:
                    continue
                self.M2[r][j] = self.M2[r][j] - ring_mul(f, self.M2[r0][j])
            if not self._zero_at_trunc(self.M2[r][c0]):
                raise TruncationInsufficient("d2 column clearing failed its certificate")
        # clear the row with column ops (P1 base change; M1 rows there are zero)
        for j in range(ncols):
            if j == c0 or j in self.consumed_cols:
                continue
            e = self.M2[r0][j]
            if self._zero_at_trunc(e):
                continue
            f = ring_mul(pinv, e)
            col_c0 = [self.M2[r][c0] for r in range(nrows)]
            for r in range(nrows):
                if r in self.used_rows:
                    continue
                self.M2[r][j] = self.M2[r][j] - ring_mul(col_c0[r], f)
            for r in range(len(self.A)):
                self.A[r][j] = self.A[r][j] - ring_mul(self.A[r][c0], f)
            if not self._zero_at_trunc(self.M2[r0][j]):
                raise TruncationInsufficient("d2 row clearing failed its certificate")
        self.used_rows.add(r0)
        self.consumed_cols.add(c0)
        self.rank2 += 1

    def witness_cocycle(self, column):
        """The degree-1 witness: original coordinates of the final basis covector."""
        return [self.A[r][column] for r in range(len(self.A))]


def _run_elimination(cx, chi, trunc):
    elim = _Elimination(cx, chi, trunc)
    ok1 = elim.eliminate_d1()
    ok2 = elim.eliminate_d2()
    r0, r1, r2 = cx.ranks
    h = {0: None, 1: None, 2: None}
    verdicts = {}
    witnesses = {}
    obstructions = {}
    if ok1:
        h[0] = r0 - elim.rank1
    if ok1 and ok2:
        h[1] = r1 - elim.rank1 - elim.rank2
    if ok2:
        h[2] = r2 - elim.rank2
    for d in (0, 1, 2):
        if h[d] is None:
            verdicts[d] = INCONCLUSIVE
            if d in (0, 1) and elim.stall1:
                obstructions[d] = f"d1: {elim.stall1}"
            if elim.stall2 and (d in (1, 2)):
                obstructions[d] = f"d2: {elim.stall2}"
        elif h[d] == 0:
            verdicts[d] = VANISHES
        else:
            verdicts[d] = WITNESS
            witnesses[d] = _describe_witness(cx, elim, d)
    return elim, h, verdicts, witnesses, obstructions


def _describe_witness(cx, elim, degree):
    if degree == 0:
        return "the augmentation cocycle (d1 is certified zero)"
    if degree == 2:
        rows = [r for r in range(cx.ranks[2]) if r not in elim.used_rows]
        return f"dual basis cocycle of relator row(s) {rows}"
    cols = [c for c in range(cx.ranks[1]) if c not in elim.consumed_cols]
    parts = []
    for c in cols:
        vec = elim.witness_cocycle(c)
        comps = [f"e{r}*[{x}]" for r, x in enumerate(vec) if not x.is_zero()]
        parts.append("col %d: %s" % (c, " + ".join(comps) if comps else "0"))
    return "; ".join(parts)


def nov_cohomology(cx, chi, degree, trunc, signs=None, stability=True):
    """Novikov cohomology verdicts of the complex at the given truncation.

    `signs` flips multicharacter components (the +-chi sweep); the verdict
    at `degree` is re-computed at a doubled frontier and the stability flag
    records whether it survived.
    """
    if chi.is_zero():
        raise ValueError("the zero multicharacter is not allowed")
    work_chi = chi.with_signs(signs) if signs else chi
    elim, h, verdicts, witnesses, obstructions = _run_elimination(cx, work_chi, trunc)
    report = RankReport("novikov", cx.ranks)
    report.field = cx.ring.field
    report.h = h
    report.verdicts = verdicts
    report.witnesses = witnesses
    report.obstructions = obstructions
    report.pattern = "".join("+" if (signs is None or s > 0) else "-"
                             for s in (signs or [1] * chi.group.nlevels))
    report.frontier = trunc.frontier
    report.elim_ranks = {1: elim.rank1, 2: elim.rank2}
    if stability:
        t2 = trunc.doubled()
        _, _, verdicts2, _, _ = _run_elimination(cx, work_chi, t2)
        report.frontier2 = t2.frontier
        report.stable = verdicts2.get(degree) == verdicts.get(degree)
    return report


def theorem_f(presentation, qmap, chi, degree, trunc, field=None):
    """Sign-sweep criterion: vanishing top Novikov cohomology for all 2^n
    patterns certifies (at truncation) the cohomological-dimension drop of
    the kernel of the quotient map.
    """

    top = 2 if presentation.relators else 1
    if degree not in (1, 2) or degree > top:
        raise DimensionMismatch(f"degree {degree} unsupported for this complex (top {top})")
    cx = fox_complex(presentation, qmap, field or QQ, project=False)
    n = chi.group.nlevels
    patterns = list(itertools.product((1, -1), repeat=n))
    reports = [nov_cohomology(cx, chi, degree, trunc, signs=list(signs))
               for signs in patterns]
    if all(r.verdicts[degree] == VANISHES and r.stable for r in reports):
        conclusion = CD_DROP
    elif any(r.verdicts[degree] == WITNESS for r in reports):
        conclusion = OBSTRUCTION
    else:
        conclusion = INCONCLUSIVE
    labels = ["".join("+" if s > 0 else "-" for s in signs) for signs in patterns]
    return CriterionVerdict(degree, labels, reports, conclusion, trunc)


def euler_check(cx, reports):
    """Alternating rank sums of all reports must equal chi(C); reports with
    undetermined degrees are skipped (they assert nothing)."""
    target = cx.euler_characteristic()
    for report in reports:
        total = report.alternating_sum()
        if total is None:
            continue
        if total != target:
            raise InconsistentReport(
                f"report sums to {total}, complex has Euler characteristic {target}")
    return True
