import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import time_limit
from nilnov import (GF, GroupRing, MultiChar, QQ, QuotientMap, Trunc, betti,
                    euler_check, fox_complex, nilpotent_quotient, nov_cohomology,
                    parse_presentation, ring_mul, theorem_f)
from nilnov import homology
from nilnov.charorder import parse_mchar
from nilnov.errors import (DimensionMismatch, InconsistentReport,
                           MismatchedCharacter, MismatchedGroup, NoStrictMinimum,
                           TruncationInsufficient)
from nilnov.groupring import dot
from nilnov.homology import (CD_DROP, INCONCLUSIVE, OBSTRUCTION, VANISHES,
                             WITNESS, _Elimination, _run_elimination,
                             pivot_block_is_unit, sign_patterns)
from nilnov.novikov import (NovContext, NovSeries, beyond_frontier, minimal_term,
                            nov_invert, widened_context)
from nilnov.presentations import free_abelian_group

DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"
TEST_DATA = pathlib.Path(__file__).parent / "data"


def both_fields():
    return (QQ, GF(2))


def count_eliminations(monkeypatch):
    """List that collects the frontier of every elimination nov_cohomology runs."""
    runs = []
    monkeypatch.setattr("nilnov.homology._run_elimination",
                        lambda cx, chi, trunc: runs.append(trunc.frontier)
                        or _run_elimination(cx, chi, trunc))
    return runs


class TestBetti:
    def test_torus(self, torus):
        for field in both_fields():
            cx = fox_complex(torus, None, field)
            assert betti(cx, field).betti == [1, 2, 1]

    def test_free_group(self, f2):
        for field in both_fields():
            cx = fox_complex(f2, None, field)
            assert betti(cx, field).betti == [1, 2]

    def test_bs12(self, bs12):
        for field in both_fields():
            cx = fox_complex(bs12, None, field)
            assert betti(cx, field).betti == [1, 1, 0]


class TestNovCohomology:
    def test_z_presentation_degree0(self, zgroup):
        # <t | >: H^0 and H^1-side ranks driven by 1 - t being invertible
        P = parse_presentation("gens t\n")
        q = nilpotent_quotient(P, 1)
        chi = MultiChar(q.target, [[1]])
        cx = fox_complex(P, q, QQ, project=False)
        rep = nov_cohomology(cx, chi, 0, Trunc([8], 32))
        assert rep.verdicts[0] == VANISHES and rep.stable

    def test_torus_all_signs_all_degrees(self, torus):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        for vals in ([[1, 0]], [[0, 1]], [[1, 1]], [[1, -1]]):
            chi = MultiChar(q.target, vals)
            for signs in ([1], [-1]):
                rep = nov_cohomology(cx, chi, 2, Trunc([8], 48), signs=signs)
                assert all(rep.verdicts[d] == VANISHES for d in (0, 1, 2))
                assert rep.stable

    def test_torus_projected_entries_agree(self, torus):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=True)
        chi = MultiChar(q.target, [[1, 0]])
        rep = nov_cohomology(cx, chi, 2, Trunc([8], 48))
        assert all(rep.verdicts[d] == VANISHES for d in (0, 1, 2))

    def test_bs12_one_sided(self, bs12, monkeypatch):
        q = nilpotent_quotient(bs12, 1)
        cx = fox_complex(bs12, q, QQ, project=False)
        chi = MultiChar(q.target, [[1]])
        runs = count_eliminations(monkeypatch)
        plus = nov_cohomology(cx, chi, 1, Trunc([6], 32), signs=[1])
        minus = nov_cohomology(cx, chi, 1, Trunc([6], 32), signs=[-1])
        assert minus.verdicts[1] == VANISHES and minus.stable
        assert minus.exact
        assert plus.verdicts[1] == INCONCLUSIVE
        assert "column" in plus.obstructions[1]
        # an inconclusive verdict asserts nothing and is not re-run
        assert plus.stable is None and runs == [(6,), (6,)]
        assert not plus.exact
        # H^0 vanishes on the stalled side too, but a stall rules out the proof,
        # so the vanishing verdict is re-run at the doubled frontier
        runs.clear()
        plus0 = nov_cohomology(cx, chi, 0, Trunc([6], 32), signs=[1])
        assert plus0.verdicts[0] == VANISHES and plus0.stable
        assert not plus0.exact and runs == [(6,), (12,)]

    def test_zero_multicharacter_rejected(self, torus):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        with pytest.raises(MismatchedCharacter):
            nov_cohomology(cx, MultiChar(q.target, [[0, 0]]), 1, Trunc([8], 32))

    @pytest.mark.parametrize("signs", [[1, -1, 1], [2], [0], []],
                             ids=["too-many", "two", "zero", "empty"])
    def test_sign_pattern_of_the_wrong_shape_rejected(self, torus, signs):
        # one sign per level, each +1 or -1: [2] would double chi, [0] zero
        # it past the zero-multicharacter check, and [] is not "all plus"
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        with pytest.raises(MismatchedCharacter):
            nov_cohomology(cx, MultiChar(q.target, [[1, 0]]), 2, Trunc([8], 32), signs=signs)

    @pytest.mark.parametrize("degree", [-1, 3])
    def test_degree_outside_complex_rejected(self, torus, degree):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        with pytest.raises(DimensionMismatch):
            nov_cohomology(cx, MultiChar(q.target, [[1, 0]]), degree, Trunc([8], 32))

    @pytest.mark.parametrize("qmap,project", [(True, False), (True, True), (False, False)],
                             ids=["free", "projected", "no-quotient-map"])
    def test_multicharacter_off_the_quotient_rejected(self, torus, qmap, project):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q if qmap else None, QQ, project=project)
        other = free_abelian_group(["u", "v"])
        with pytest.raises(MismatchedGroup):
            nov_cohomology(cx, MultiChar(other, [[1, 0]]), 2, Trunc([8], 32))

    def test_pivot_certificates_reassertable(self, torus):
        # every vanishing verdict is reproduced at the doubled frontier
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        chi = MultiChar(q.target, [[1, 1]])
        r1 = nov_cohomology(cx, chi, 2, Trunc([8], 48))
        _, r2 = _run_elimination(cx, chi, Trunc([16], 96))
        assert r1.verdicts == r2.verdicts

    def test_parafree_class2_sweep_reports_every_pattern(self):
        # Baumslag's parafree group <a, b, c | a = [c,a][c,b]> over its
        # class-2 quotient: pattern -- fails a d2 clearing certificate,
        # which makes that pattern inconclusive and leaves the others alone
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 2)
        chi = parse_mchar((DATA / "chi_parafree_c2.mchar").read_text(), q.target)
        cx = fox_complex(P, q, QQ, project=False)
        reports = [nov_cohomology(cx, chi, 2, Trunc([2, 2], 64), signs=signs)
                   for signs in sign_patterns(2)]
        verdicts = {r.pattern: r.verdicts[2] for r in reports}
        assert verdicts == {"++": VANISHES, "+-": INCONCLUSIVE,
                            "-+": INCONCLUSIVE, "--": INCONCLUSIVE}
        assert "row clearing failed its certificate" in reports[3].obstructions[2]
        # two levels: no exact certificate, so the vanishing pattern re-runs
        # at 2F; the inconclusive ones assert nothing and are not re-run
        assert not reports[0].exact and reports[0].stable is not None
        assert all(r.stable is None for r in reports[1:])
        assert reports[0].alternating_sum() is not None
        assert euler_check(cx, reports)

    def test_only_the_returned_report_formats_witnesses(self, monkeypatch):
        # chi(c) over the class-2 quotient of the parafree group: every
        # pattern has an H^1 witness and re-runs its two-level H^2 verdict
        # at 2F, which reads one verdict and formats no witness
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 2)
        chi = parse_mchar("char 0: b=0 c=1\nchar 1: [c,b]=1\n", q.target)
        cx = fox_complex(P, q, QQ, project=False)
        describe, formatted = homology._describe_witness, []
        monkeypatch.setattr(homology, "_describe_witness",
                            lambda cx, elim, d: formatted.append(elim.ctx.trunc.frontier)
                            or describe(cx, elim, d))
        runs = count_eliminations(monkeypatch)
        reports = [nov_cohomology(cx, chi, 2, Trunc([2, 2], 64), signs=signs)
                   for signs in sign_patterns(2)]
        assert formatted and set(formatted) == {(2, 2)}
        assert (4, 4) in runs
        assert all(1 in r.witnesses for r in reports)

    @pytest.mark.parametrize("step,where", [("clearing", "row 1, column 0"),
                                            ("column check", "row 0, column 0")],
                             ids=["clearing", "column-check"])
    def test_failed_d1_certificate_leaves_h2_to_d2(self, torus, monkeypatch, step, where):
        # either d1 step may fail: clearing d1 itself, or the check of the
        # consumed column of d2 that follows it.  H^0 and H^1 are then
        # inconclusive, and d2 still runs: column 0 (1 - a b a^-1) ties at
        # degree 0, column 1 (a - a b a^-1 b^-1) pivots, and H^2 vanishes
        certify = _Elimination._certify

        def fail_d1_step(self, at_step, r, c, residual):
            if at_step == step:
                return f"{step} failed its certificate at row {r}, column {c}"
            return certify(self, at_step, r, c, residual)

        monkeypatch.setattr(_Elimination, "_certify", fail_d1_step)
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        elim, report = _run_elimination(cx, MultiChar(q.target, [[1, 0]]), Trunc([8], 48))
        assert elim.rank1 == 0 and elim.pivots2 == [(0, 1)] and elim.stall2 is None
        stall = f"d1: {step} failed its certificate at {where}"
        assert report.verdicts == {0: INCONCLUSIVE, 1: INCONCLUSIVE, 2: VANISHES}
        assert report.obstructions == {0: stall, 1: stall}

    @pytest.mark.parametrize("k,stall", [
        (1, "clearing failed its certificate at row 0, column 0: "
            "residual degree (1) inside the frontier"),
        (4, "column check failed its certificate at row 0, column 2: "
            "residual degree (3) inside the frontier"),
    ], ids=["clearing", "column-check"])
    def test_perturbed_d1_inverse_fails_as_with_the_explicit_base_change(
            self, monkeypatch, k, stall):
        # parafree over its abelianisation, chi(c) = 1 at frontier 4: the d1
        # pivot is c - 1, and c^k added to its inverse puts c^k and c^(k+1)
        # into the residual e.  At k = 1 clearing row 0 (a - 1) sees degree 1;
        # at k = 4 the cleared rows lie beyond the box, and the term of
        # degree -1 in d2[0][2] brings the column check's residual to 3.
        # Either way the d1 stage fails as the explicit base change does, and
        # d2, whose pivot inverse is left as it is, decides H^2 alike
        P = parse_presentation((DATA / "parafree.fpg").read_text())
        q = nilpotent_quotient(P, 1)
        cx = fox_complex(P, q, QQ, project=False)
        chi = parse_mchar((DATA / "chi_parafree_c.mchar").read_text(), q.target)
        shift, inverted = cx.ring.parse(f"c^{k}"), []

        def perturbed(beta):
            inverted.append(beta)
            body = nov_invert(beta).body
            return NovSeries(beta.ctx, body + shift if len(inverted) == 1 else body)

        monkeypatch.setattr(homology, "nov_invert", perturbed)
        reports = []
        for elimination in (_Elimination, ExplicitD1Elimination):
            monkeypatch.setattr(homology, "_Elimination", elimination)
            inverted.clear()
            elim, report = _run_elimination(cx, chi, Trunc([4], 32))
            assert elim.rank1 == 0 and elim.rank2 == 1 and elim.stall2 is None
            reports.append((report.verdicts, report.obstructions))
        assert reports[0] == reports[1] == ({0: INCONCLUSIVE, 1: INCONCLUSIVE, 2: VANISHES},
                                            {d: f"d1: {stall}" for d in (0, 1)})

    @pytest.mark.parametrize("signs", [[1, 1], [1, -1]], ids=["++", "+-"])
    def test_real_two_level_d1_certificate_failure(self, signs):
        # over the class-2 quotient <a, c> of this one-relator group (b = c a^-2
        # c^-1), the d1 pivot b - 1 inverts and certifies, but its residual
        # times d2[0][1] keeps degree (-2,0) inside the box: d1 fails with no
        # monkeypatching.  H^0 and H^1 keep that obstruction, and d2, which
        # pivots on the column whose clearing failed, decides H^2
        P = parse_presentation("gens a b c\nrel a^-2 c^-1 b^-1 c\n")
        q = nilpotent_quotient(P, 2)
        cx = fox_complex(P, q, QQ, project=False)
        chi = parse_mchar("char 0: a=0 c=2\nchar 1: [c,a]=-2\n", q.target).with_signs(signs)
        elim, report = _run_elimination(cx, chi, Trunc([4, 4], 32))
        stall = ("d1: column check failed its certificate at row 0, column 1: "
                 "residual degree (-2,0) inside the frontier")
        assert elim.rank1 == 0 and elim.pivots2 == [(0, 1)] and elim.stall2 is None
        assert report.verdicts == {0: INCONCLUSIVE, 1: INCONCLUSIVE, 2: VANISHES}
        assert report.obstructions == {0: stall, 1: stall}

    @pytest.mark.parametrize("signs,stall", [
        ([1], "row 0, column 0: residual degree (4) inside the frontier"),
        ([-1], "row 1, column 0: residual degree (-4) inside the frontier"),
    ], ids=["+", "-"])
    def test_perturbed_d2_inverse_fails_column_clearing(self, mapping_torus, monkeypatch,
                                                        signs, stall):
        # the mapping torus over its abelianisation, chi(t) = 1 at frontier
        # 8: t^3 added to the first d2 pivot's inverse leaves x t^3 p in a
        # cleared entry x of the pivot's column, inside the box, so column
        # clearing fails its certificate on real data.  d1 has pivoted, so
        # H^0 still vanishes
        q = nilpotent_quotient(mapping_torus, 1)
        cx = fox_complex(mapping_torus, q, QQ, project=False)
        shift, inverted = cx.ring.parse("t^3"), []

        def perturbed(beta):
            inverted.append(beta)
            body = nov_invert(beta).body
            return NovSeries(beta.ctx, body + shift if len(inverted) == 2 else body)

        monkeypatch.setattr(homology, "nov_invert", perturbed)
        chi = MultiChar(q.target, [[1]]).with_signs(signs)
        elim, report = _run_elimination(cx, chi, Trunc([8], 48))
        assert elim.rank1 == 1 and elim.rank2 == 0 and len(inverted) == 2
        obstruction = f"d2: column clearing failed its certificate at {stall}"
        assert report.verdicts == {0: VANISHES, 1: INCONCLUSIVE, 2: INCONCLUSIVE}
        assert report.obstructions == {1: obstruction, 2: obstruction}


def matmul(X, Y):
    """The product of two matrices of ring elements."""
    return [[dot(row, [y[j] for y in Y]) for j in range(len(Y[0]))] for row in X]


class RecordingElimination(_Elimination):
    """An elimination that also records its d2-stage row operations in L
    (final rows = L * original rows).  Each row operation of a column
    clearing is certified right after it is applied, so `_certify` records
    it, with the multiplier `_clear_column` computes from the entry before."""

    def __init__(self, cx, chi, trunc):
        super().__init__(cx, chi, trunc)
        one, zero = cx.ring.one(), cx.ring.zero()
        r2 = cx.ranks[2]
        self.L = [[one if i == j else zero for j in range(r2)] for i in range(r2)]
        self.multipliers = {}

    def _clear_column(self, rows, r0, c0, pinv):
        self.multipliers = {r: (r0, ring_mul(self.M2[r][c0], pinv)) for r in rows}
        return super()._clear_column(rows, r0, c0, pinv)

    def _certify(self, step, r, c, residual):
        if step == "column clearing":
            r0, f = self.multipliers[r]
            self.L[r] = [x - ring_mul(f, y) for x, y in zip(self.L[r], self.L[r0])]
        return super()._certify(step, r, c, residual)


class ExplicitD1Elimination(_Elimination):
    """An elimination whose d1 stage applies the P1 base change that
    `_Elimination` leaves virtual: it clears M1, d1 as an r1 x 1 matrix, and
    mirrors each row operation on column i0 of M2 and A; that column is then
    checked against (row_j . d1) p^-1 and zeroed.  Its pivot searches widen
    by d1 as given, as those of `_Elimination` do.  Records i0 and p^-1."""

    def __init__(self, cx, chi, trunc):
        super().__init__(cx, chi, trunc)
        self.M1 = [[e] for e in cx.d1]
        self.i0 = self.pinv = None

    def eliminate_d1(self):
        pivot, stall = self._choose_pivot((0, i, row[0]) for i, row in enumerate(self.M1))
        if pivot is None:
            self.stall1 = f"row {stall[1]}: {stall[2]}"
            return
        _, self.i0, self.pinv = pivot
        self.stall1 = self._clear_d1(self.i0, self.pinv)
        if self.stall1 is None:
            self.rank1 = 1
            self.consumed_cols.add(self.i0)

    def _clear_d1(self, i0, pinv):
        p = self.M1[i0][0]
        for r, row in enumerate(self.M1):
            if r == i0 or beyond_frontier(self.ctx, row[0]):
                continue
            f = ring_mul(row[0], pinv)
            row[0] = row[0] - ring_mul(f, p)
            for line in self.M2 + self.A:
                line[i0] = line[i0] + ring_mul(line[r], f)
            stall = self._certify("clearing", r, 0, row[0])
            if stall:
                return stall
        for j, row in enumerate(self.M2):
            composite = dot(self.cx.d2[j], self.cx.d1)
            stall = self._certify("column check", j, i0, row[i0] - ring_mul(composite, pinv))
            if stall:
                return stall
            row[i0] = self.cx.ring.zero()
        return None


class ExhaustiveElimination(_Elimination):
    """An elimination whose pivot search inverts every candidate, keeps the
    least (minimal degree, column, row) key among those that certify, and
    records the first failure of each column; the stall is that of the
    least column.  The search of `_Elimination` must choose alike."""

    def _choose_pivot(self, cells):
        inv_ctx = widened_context(self.ctx, [*self.cx.d1, *(e for row in self.M2 for e in row)])
        key, pivot, stuck = None, None, {}
        for c, r, e in cells:
            if beyond_frontier(self.ctx, e):
                continue
            try:
                _, _, deg = minimal_term(self.ctx, e)
                inv = nov_invert(NovSeries(inv_ctx, e))
            except NoStrictMinimum as err:
                stuck.setdefault(c, (r, str(err)))
                continue
            except TruncationInsufficient:
                stuck.setdefault(c, (r, "certificate exhausted m_max"))
                continue
            if pivot is None or (deg, c, r) < key:
                key, pivot = (deg, c, r), (c, r, inv.body)
        if pivot is not None or not stuck:
            return pivot, None
        c = min(stuck)
        return None, (c, *stuck[c])


def elimination_corpus():
    """(group file, class, projected entries, multicharacter values, signs,
    frontier entry): every level-0 vector over {-1, 0, 1, 2} with the deeper
    levels at 1, frontiers 2 and 4, every sign pattern."""
    cases = []
    for name in ("torus", "bs12", "mapping_torus", "mapping_torus_1rel", "parafree", "f2"):
        P = parse_presentation((DATA / f"{name}.fpg").read_text())
        for cls in (1, 2):
            G = nilpotent_quotient(P, cls).target
            deeper = [[1] * len(gens) for gens in G.level_gens[1:]]
            for vals in itertools.product((-1, 0, 1, 2), repeat=len(G.level_gens[0])):
                comps = [list(vals)] + deeper
                if any(v for comp in comps for v in comp):
                    cases += [(name, cls, project, comps, signs, f)
                              for project in (False, True) for f in (2, 4)
                              for signs in sign_patterns(G.nlevels)]
    return cases


class TestPivotSearch:
    def test_same_eliminations_as_the_exhaustive_search(self, monkeypatch):
        # a seeded sample of the corpus gives the same verdicts, obstructions,
        # pivots, stalls, M2 and A with either search, and with the explicit
        # d1 base change outside the column i0 it writes
        def run(cx, chi, trunc, elimination):
            monkeypatch.setattr(homology, "_Elimination", elimination)
            elim, report = _run_elimination(cx, chi, trunc)
            return elim, (report.verdicts, report.obstructions, elim.rank1, elim.pivots2,
                          elim.consumed_cols, elim.stall1, elim.stall2, elim.M2, elim.A,
                          elim.vanishing_is_exact())

        def outside_column(result, i0):
            *head, M2, A, exact = result
            return (*head, *([row[:i0] + row[i0 + 1:] for row in M] for M in (M2, A)), exact)

        # parafree with its relator rotated, pattern -- of chi(b): d2 stalls
        # on an inversion in column 0, after a tie in column 2 has failed
        rotated = "group parafree\ngens a b c\nrel c^-1 b c a^-1 c^-1 a c a b^-1\n"
        cases = [(parse_presentation((DATA / f"{name}.fpg").read_text()), *case)
                 for name, *case in random.Random(25).sample(elimination_corpus(), 150)]
        cases.append((parse_presentation(rotated), 2, False, [[1, 0], [1]], [-1, -1], 2))
        results, d1_pivots = [], 0
        for P, cls, project, comps, signs, f in cases:
            q = nilpotent_quotient(P, cls)
            cx = fox_complex(P, q, QQ, project=project)
            chi = MultiChar(q.target, comps).with_signs(signs)
            trunc = Trunc([f] * q.target.nlevels, 32)
            results.append(run(cx, chi, trunc, _Elimination)[1])
            assert results[-1] == run(cx, chi, trunc, ExhaustiveElimination)[1]
            explicit, reference = run(cx, chi, trunc, ExplicitD1Elimination)
            if explicit.i0 is None:
                assert reference == results[-1]
                continue
            assert outside_column(reference, explicit.i0) == outside_column(results[-1], explicit.i0)
            # the pivot g - 1 commutes with its inverse, a series in g
            p = cx.d1[explicit.i0]
            assert ring_mul(p, explicit.pinv) == ring_mul(explicit.pinv, p)
            d1_pivots += 1
        # the sample meets stalls of both stages and every verdict
        assert any(r[5] for r in results) and any(r[6] for r in results)
        assert {v for r in results for v in r[0].values()} == {VANISHES, WITNESS, INCONCLUSIVE}
        assert d1_pivots > 100

    def test_d1_pivots_on_the_first_entry_whose_inverse_certifies(self, torus, monkeypatch):
        # the torus with chi = (1/100, 1) at frontier 8: a - 1 ranks first
        # (both entries have minimal degree 0, and a's row comes first), but
        # its series needs a^k with k/100 past the frontier and exhausts
        # m_max = 64, so d1 pivots on b - 1 and every degree vanishes.  A pick
        # by rank alone would pivot on a - 1
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        outcomes = []

        def spy(beta):
            try:
                inv = nov_invert(beta)
            except TruncationInsufficient:
                outcomes.append((beta.body, "exhausted"))
                raise
            outcomes.append((beta.body, "certified"))
            return inv

        monkeypatch.setattr(homology, "nov_invert", spy)
        chi = MultiChar(q.target, [[Fraction(1, 100), 1]])
        elim, report = _run_elimination(cx, chi, Trunc([8], 64))
        assert outcomes[:2] == [(cx.d1[0], "exhausted"), (cx.d1[1], "certified")]
        assert elim.rank1 == 1 and elim.consumed_cols - {c for _, c in elim.pivots2} == {1}
        assert report.verdicts == {0: VANISHES, 1: VANISHES, 2: VANISHES}

    def test_inverts_only_the_pivots(self, mapping_torus, monkeypatch):
        # the mapping torus, chi = 1, pattern +: one d1 and two d2 pivots,
        # and no candidate besides them is inverted
        q = nilpotent_quotient(mapping_torus, 1)
        cx = fox_complex(mapping_torus, q, QQ, project=False)
        inverted = []
        monkeypatch.setattr(homology, "nov_invert",
                            lambda beta: inverted.append(beta) or nov_invert(beta))
        rep = nov_cohomology(cx, MultiChar(q.target, [[1]]), 2, Trunc([8], 48))
        assert rep.exact and rep.verdicts[2] == VANISHES
        assert len(inverted) == 3

    @pytest.mark.parametrize("column1", ["1 + b", "1 - a"], ids=["tied", "exhausted"])
    def test_stall_is_the_first_failure_by_column(self, torus, column1):
        # column 0 holds a - a^2, whose series exhausts m_max = 2; column 1
        # either ties at its minimum, failing while the candidates are
        # ranked, or exhausts m_max too and ranks first (degree 0 < 1).
        # Either way column 1 fails first, and the stall names column 0
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        elim = _Elimination(cx, MultiChar(q.target, [[1, 0]]), Trunc([8], 2))
        cells = [(1, 0, cx.ring.parse(column1)), (0, 1, cx.ring.parse("a - a^2"))]
        pivot, stall = elim._choose_pivot(cells)
        assert pivot is None
        assert stall == (0, 1, "certificate exhausted m_max")


class TestExactCertificate:
    @pytest.fixture
    def laurent(self, zgroup):
        """Z[t^+-1] over QQ, and a Novikov context for chi(t) = 1."""
        ring = GroupRing(zgroup, QQ)
        ctx = NovContext(MultiChar(zgroup, [[1]]), Trunc([8], 32))
        return ring, ctx

    @staticmethod
    def _unit_block(ring, ctx, d2):
        return pivot_block_is_unit(ctx, d2, [(0, 0), (1, 1)])

    @pytest.mark.parametrize("off,accepted", [
        ("t^-1", False), ("1", False), ("2 - t^3", False), ("t", True), ("t^2 - 3 t^5", True),
    ])
    def test_off_diagonal_degree(self, laurent, off, accepted):
        # pivot rows: (1 + t, off) with v_0 = 0 and (t^2, t + t^2) with v_1 = 1
        ring, ctx = laurent
        d2 = [[ring.parse("1 + t"), ring.parse(off)],
              [ring.parse("t^2"), ring.parse("t + t^2")]]
        assert self._unit_block(ring, ctx, d2) == accepted

    def test_zero_pivot_rejected(self, laurent):
        ring, ctx = laurent
        d2 = [[ring.parse("1 - t^2"), ring.parse("t")], [ring.parse("t^3"), ring.zero()]]
        assert not self._unit_block(ring, ctx, d2)

    def test_base_changes_are_applied(self, laurent):
        # L d2 A = [[1, 0], [0, t - 1]] although d2 = [[1, t], [1, 2 t - 1]]
        # itself fails at row 1, column 0 (degree 0 against v_1 = 0)
        ring, ctx = laurent
        one, zero, t = ring.one(), ring.zero(), ring.parse("t")
        d2 = [[one, t], [one, ring.parse("2 t - 1")]]
        L = [[one, zero], [-one, one]]
        A = [[one, -t], [zero, one]]
        pivots = [(0, 0), (1, 1)]
        assert pivot_block_is_unit(ctx, matmul(matmul(L, d2), A), pivots)
        assert pivot_block_is_unit(ctx, matmul(L, d2), pivots)
        assert not pivot_block_is_unit(ctx, matmul(d2, A), pivots)
        assert not pivot_block_is_unit(ctx, d2, pivots)

    @pytest.mark.parametrize("group,cls,chi,frontier,signs", [
        ("mapping_torus", 1, [[1]], [6], [1]),
        ("mapping_torus", 1, [[1]], [6], [-1]),
        ("torus", 1, [[1, -2]], [6], [1]),
        ("torus", 1, [[1, -2]], [6], [-1]),
        ("bs12", 1, [[1]], [6], [1]),
        ("bs12", 1, [[1]], [6], [-1]),
        (DATA / "parafree.fpg", 1, DATA / "chi_parafree_c.mchar", [4], [1]),
        (DATA / "parafree.fpg", 1, DATA / "chi_parafree_c.mchar", [4], [-1]),
        (DATA / "parafree.fpg", 2, DATA / "chi_parafree_c2.mchar", [2, 2], [1, 1]),
        (DATA / "parafree.fpg", 2, DATA / "chi_parafree_c2.mchar", [2, 2], [1, -1]),
        (DATA / "parafree.fpg", 2, DATA / "chi_parafree_c2.mchar", [2, 2], [-1, 1]),
        (DATA / "parafree.fpg", 2, DATA / "chi_parafree_c2.mchar", [2, 2], [-1, -1]),
        (TEST_DATA / "f2xf2.fpg", 1, [[1, 2, -1, 1]], [4], [1]),
        (TEST_DATA / "f2xf2.fpg", 1, [[1, 2, -1, 1]], [4], [-1]),
        (TEST_DATA / "commutators.fpg", 1, [[0, 1, 1, 0]], [3], [1]),
        (TEST_DATA / "commutators.fpg", 1, [[0, 1, 1, 0]], [3], [-1]),
    ], ids=["mapping_torus+", "mapping_torus-", "torus+", "torus-", "bs12+", "bs12-",
            "parafree_c1+", "parafree_c1-", "parafree_c2++", "parafree_c2+-",
            "parafree_c2-+", "parafree_c2--", "f2xf2+", "f2xf2-", "commutators+",
            "commutators-"])
    def test_eliminated_matrix_is_l_d2_a(self, request, monkeypatch,
                                         group, cls, chi, frontier, signs):
        # M2 equals L d2 A, with L the recorded row operations, on every
        # entry outside the consumed d1 column, at each stall too; so the
        # pivot block that pivot_block_is_unit reads is d2 in other bases.
        # F2 x F2 applies row operations after a d2 pivot column is consumed,
        # and in `commutators` a P1 base change reaches a used pivot row
        P = (parse_presentation(group.read_text()) if isinstance(group, pathlib.Path)
             else request.getfixturevalue(group))
        q = nilpotent_quotient(P, cls)
        cx = fox_complex(P, q, QQ, project=False)
        mchar = (parse_mchar(chi.read_text(), q.target) if isinstance(chi, pathlib.Path)
                 else MultiChar(q.target, chi))
        monkeypatch.setattr(homology, "_Elimination", RecordingElimination)
        elim, _ = _run_elimination(cx, mchar.with_signs(signs), Trunc(frontier, 48))
        assert isinstance(elim, RecordingElimination)
        T = matmul(matmul(elim.L, cx.d2), elim.A)
        d1_column = elim.consumed_cols - {c for _, c in elim.pivots2}
        assert len(d1_column) == elim.rank1
        assert all(elim.M2[r][c] == T[r][c] for r in range(len(T))
                   for c in range(len(T[r])) if c not in d1_column)
        if group == "mapping_torus":
            assert elim.L[1][0] != cx.ring.zero() or elim.L[0][1] != cx.ring.zero()
            assert elim.rank2 == 2

    @pytest.mark.parametrize("name,chi,degree,patterns", [
        ("torus", [[1, 0]], 2, ([1], [-1])),
        ("torus", [[1, -2]], 2, ([1], [-1])),
        ("mapping_torus", [[1]], 2, ([1], [-1])),
        ("bs12", [[1]], 1, ([-1],)),
    ])
    def test_exact_implies_stable(self, request, monkeypatch, name, chi, degree, patterns):
        # an exact report skips the re-run at the doubled frontier, and that
        # re-run would agree with it
        P = request.getfixturevalue(name)
        q = nilpotent_quotient(P, 1)
        cx = fox_complex(P, q, QQ, project=False)
        mchar = MultiChar(q.target, chi)
        runs = count_eliminations(monkeypatch)
        for f in (4, 5, 6):
            for signs in patterns:
                runs.clear()
                rep = nov_cohomology(cx, mchar, degree, Trunc([f], 32), signs=signs)
                assert rep.exact and rep.stable and runs == [(f,)]
                _, doubled = _run_elimination(cx, mchar.with_signs(signs), Trunc([2 * f], 64))
                assert doubled.verdicts == rep.verdicts, (name, f, signs)


class TestTheoremF:
    def test_torus_identity_quotient(self, torus):
        q = nilpotent_quotient(torus, 1)
        chi = MultiChar(q.target, [[1, 0]])
        verdict = theorem_f(torus, q, chi, 2, Trunc([8], 48))
        assert verdict.conclusion == CD_DROP
        assert [r.pattern for r in verdict.reports] == ["+", "-"]

    def test_mapping_torus_kernel_f2(self, mapping_torus):
        q = nilpotent_quotient(mapping_torus, 1)
        chi = MultiChar(q.target, [[1]])
        verdict = theorem_f(mapping_torus, q, chi, 2, Trunc([8], 48))
        assert verdict.conclusion == CD_DROP
        assert all(r.verdicts[2] == VANISHES and r.stable for r in verdict.reports)

    def test_f2_onto_z_obstructed(self, f2):
        Z = free_abelian_group(["u"])
        q = QuotientMap(f2, Z, [Z.generator(0), ()])
        chi = MultiChar(Z, [[1]])
        verdict = theorem_f(f2, q, chi, 1, Trunc([8], 48))
        assert verdict.conclusion == OBSTRUCTION
        assert all(r.verdicts[1] == WITNESS for r in verdict.reports)
        assert all(not r.exact and r.stable is not None for r in verdict.reports)
        assert all(1 in r.witnesses for r in verdict.reports)

    def test_sweep_covers_all_patterns(self, f2):
        q = nilpotent_quotient(f2, 2)  # Heisenberg quotient: 2 levels
        chi = MultiChar(q.target, [[1, 0], [1]])
        verdict = theorem_f(f2, q, chi, 1, Trunc([3, 3], 16))
        assert [r.pattern for r in verdict.reports] == ["++", "+-", "-+", "--"]

    def test_quotient_map_of_another_presentation(self, bs12, torus):
        q = nilpotent_quotient(torus, 1)
        with pytest.raises(MismatchedGroup):
            theorem_f(bs12, q, MultiChar(q.target, [[1, 0]]), 2, Trunc([4], 32))

    def test_dimension_guard(self, f2):
        Z = free_abelian_group(["u"])
        q = QuotientMap(f2, Z, [Z.generator(0), ()])
        chi = MultiChar(Z, [[1]])
        with pytest.raises(DimensionMismatch):
            theorem_f(f2, q, chi, 2, Trunc([8], 32))  # no relators: top degree 1

    def test_f2xf2_below_top_rejected_and_top_obstructed(self):
        # the kernel [G,G] of F2 x F2 -> Z^4 contains <[a,b],[c,d]> = Z^2, so
        # its cd is 2 = cd(G): H^1 vanishing must not certify a drop, and
        # the top degree finds the obstruction
        P = parse_presentation((TEST_DATA / "f2xf2.fpg").read_text())
        q = nilpotent_quotient(P, 1)
        chi = MultiChar(q.target, [[1, 0, 1, 0]])
        with pytest.raises(DimensionMismatch):
            theorem_f(P, q, chi, 1, Trunc([4], 64))
        verdict = theorem_f(P, q, chi, 2, Trunc([4], 64))
        assert verdict.conclusion == OBSTRUCTION


class TestEuler:
    def test_field_reports(self, torus, bs12, f2, mapping_torus):
        for P in (torus, bs12, f2, mapping_torus):
            for field in both_fields():
                cx = fox_complex(P, None, field)
                euler_check(cx, [betti(cx, field)])

    @pytest.mark.parametrize("name,cls,chi,degree,trunc", [
        ("torus", 1, [[1, 0]], 2, Trunc([8], 48)),
        ("mapping_torus", 1, [[1]], 2, Trunc([8], 48)),
        ("f2", 2, [[1, 0], [1]], 1, Trunc([3, 3], 16)),
    ])
    def test_every_report_of_a_sweep(self, request, name, cls, chi, degree, trunc):
        P = request.getfixturevalue(name)
        q = nilpotent_quotient(P, cls)
        verdict = theorem_f(P, q, MultiChar(q.target, chi), degree, trunc)
        assert len(verdict.reports) == 2 ** q.target.nlevels
        assert all(r.alternating_sum() is not None for r in verdict.reports)
        cx = fox_complex(P, q, QQ, project=False)
        assert euler_check(cx, verdict.reports)

    def test_novikov_reports(self, torus, f2):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        chi = MultiChar(q.target, [[1, 0]])
        rep = nov_cohomology(cx, chi, 2, Trunc([8], 48))
        euler_check(cx, [rep])
        # witness reports also satisfy the alternating-sum identity
        Z = free_abelian_group(["u"])
        qf = QuotientMap(f2, Z, [Z.generator(0), ()])
        cxf = fox_complex(f2, qf, QQ, project=False)
        repf = nov_cohomology(cxf, MultiChar(Z, [[1]]), 1, Trunc([8], 48))
        euler_check(cxf, [repf])

    def test_inconsistent_report_detected(self, torus):
        cx = fox_complex(torus, None, QQ)
        report = betti(cx, QQ)
        report.h[2] = 2  # corrupt it: betti numbers 1 2 2
        with pytest.raises(InconsistentReport):
            euler_check(cx, [report])


def tietze_variant(P, rng):
    """P with each relator cyclically rotated and maybe inverted, the
    relators shuffled, and the generators renamed x0, x1, ... in a shuffled
    order; returns the new presentation and the new name of each generator."""
    relators = []
    for r in P.relators:
        k = rng.randrange(len(r))
        r = list(r[k:] + r[:k])
        if rng.random() < 0.5:
            r = [(g, -e) for g, e in reversed(r)]
        relators.append(r)
    rng.shuffle(relators)
    order = list(range(len(P.gen_names)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    names = [f"x{i}" for i in range(len(order))]

    def fmt(word):
        return " ".join(f"{names[position[g]]}^{e}" for g, e in word)

    text = f"group variant\ngens {' '.join(names)}\n" + "".join(f"rel {fmt(r)}\n"
                                                                for r in relators)
    return parse_presentation(text), {old: names[position[i]]
                                      for i, old in enumerate(P.gen_names)}


class TestTietzeInvariance:
    """Presentations of one group give one set of verdicts.  The class-1
    quotient of the mapping torus is Z, and chi(t) = 1 fixes the character
    whatever basis the quotient picks."""

    FRONTIER = 3

    def verdicts(self, P, t):
        q = nilpotent_quotient(P, 1)
        (image,) = q.target.level_vector(q.apply_word(((P.gen_names.index(t), 1),)), 0)
        assert abs(image) == 1
        chi = MultiChar(q.target, [[image]])
        trunc = Trunc([self.FRONTIER], 48)
        verdict = theorem_f(P, q, chi, 2, trunc)
        cx = fox_complex(P, q, QQ, project=False)
        assert euler_check(cx, verdict.reports)
        out = [verdict.conclusion] + [(r.pattern, r.verdicts, r.stable) for r in verdict.reports]
        for signs in sign_patterns(1):
            for degree in (0, 1, 2):
                rep = nov_cohomology(cx, chi, degree, trunc, signs=signs)
                assert euler_check(cx, [rep])
                out.append((degree, rep.pattern, rep.verdicts[degree], rep.stable))
        return out

    def test_mapping_torus_relator_moves_and_renaming(self):
        P = parse_presentation((DATA / "mapping_torus.fpg").read_text())
        expected = self.verdicts(P, "t")
        assert expected[0] == CD_DROP
        rng = random.Random(11)
        for _ in range(8):
            variant, names = tietze_variant(P, rng)
            assert self.verdicts(variant, names["t"]) == expected, variant.relators

    def test_parafree_rotated_relator(self):
        # P_rot is parafree with its relator rotated.  Pattern -- of its
        # chi(b) sweep meets a beta_plus term of degree (0,0), whose
        # geometric series never leaves the box: it must stall, not hang
        def reports(relator, mchar, patterns):
            P = parse_presentation(f"group parafree\ngens a b c\nrel {relator}\n")
            q = nilpotent_quotient(P, 2)
            chi = parse_mchar(mchar, q.target)
            cx = fox_complex(P, q, QQ, project=False)
            return [(r.verdicts, r.stable, r.obstructions) for r in
                    (nov_cohomology(cx, chi, 2, Trunc([2, 2], 64), signs=signs)
                     for signs in patterns)]

        plain, rotated = "a^-1 c^-1 a^-1 c a c^-1 b^-1 c b", "c^-1 b c a^-1 c^-1 a c a b^-1"
        chi_b = (DATA / "chi_parafree_c2.mchar").read_text()
        with time_limit(5):
            sweep = reports(rotated, chi_b, sign_patterns(2))
        assert sweep[0] == reports(plain, chi_b, [[1, 1]])[0]
        assert sweep[0][:2] == ({0: VANISHES, 1: WITNESS, 2: VANISHES}, True)
        assert sweep[3][2][2].endswith("beta_plus term of degree (0,0) is not positive")
        chi_c = "char 0: b=0 c=1\nchar 1: [c,b]=1\n"
        assert [r[:2] for r in reports(rotated, chi_c, sign_patterns(2))] == \
            [r[:2] for r in reports(plain, chi_c, sign_patterns(2))]

    def test_one_relator_form(self):
        two = parse_presentation((DATA / "mapping_torus.fpg").read_text())
        one = parse_presentation((DATA / "mapping_torus_1rel.fpg").read_text())
        assert self.verdicts(one, "t") == self.verdicts(two, "t")
