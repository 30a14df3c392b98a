import pathlib

import pytest

from nilnov import (GF, MultiChar, QQ, QuotientMap, Trunc, betti, euler_check,
                    fox_complex, nilpotent_quotient, nov_cohomology,
                    parse_presentation, theorem_f)
from nilnov.charorder import parse_mchar
from nilnov.errors import (DimensionMismatch, InconsistentReport,
                           MismatchedCharacter, MismatchedGroup)
from nilnov.homology import (CD_DROP, INCONCLUSIVE, OBSTRUCTION, VANISHES,
                             WITNESS, _Elimination, _run_elimination,
                             sign_patterns)
from nilnov.presentations import free_abelian_group

DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"


def both_fields():
    return (QQ, GF(2))


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

    def test_bs12_one_sided(self, bs12):
        q = nilpotent_quotient(bs12, 1)
        cx = fox_complex(bs12, q, QQ, project=False)
        chi = MultiChar(q.target, [[1]])
        plus = nov_cohomology(cx, chi, 1, Trunc([6], 32), signs=[1])
        minus = nov_cohomology(cx, chi, 1, Trunc([6], 32), signs=[-1])
        assert minus.verdicts[1] == VANISHES and minus.stable
        assert plus.verdicts[1] == INCONCLUSIVE
        assert "column" in plus.obstructions[1]
        assert plus.stable  # inconclusive at both frontiers

    def test_zero_multicharacter_rejected(self, torus):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        with pytest.raises(MismatchedCharacter):
            nov_cohomology(cx, MultiChar(q.target, [[0, 0]]), 1, Trunc([8], 32))

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
        r2 = nov_cohomology(cx, chi, 2, Trunc([16], 96), stability=False)
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
        assert reports[0].alternating_sum() is not None
        assert euler_check(cx, reports)

    def test_failed_d1_certificate_skips_d2(self, torus, monkeypatch):
        certify = _Elimination._certify

        def fail_d1_clearing(self, step, r, c, residual):
            if step == "clearing":
                return f"clearing failed its certificate at row {r}, column {c}"
            return certify(self, step, r, c, residual)

        monkeypatch.setattr(_Elimination, "_certify", fail_d1_clearing)
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=False)
        elim, report = _run_elimination(cx, MultiChar(q.target, [[1, 0]]), Trunc([8], 48))
        assert elim.rank2 == 0 and elim.stall2 is None
        stall = "d1: clearing failed its certificate at row 1, column 0"
        assert report.verdicts == {0: INCONCLUSIVE, 1: INCONCLUSIVE, 2: INCONCLUSIVE}
        assert report.obstructions == {0: stall, 1: stall, 2: stall}


class TestTheoremF:
    def test_torus_identity_quotient(self, torus):
        q = nilpotent_quotient(torus, 1)
        chi = MultiChar(q.target, [[1, 0]])
        verdict = theorem_f(torus, q, chi, 2, Trunc([8], 48))
        assert verdict.conclusion == CD_DROP
        assert verdict.patterns == ["+", "-"]

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
        assert all(1 in r.witnesses for r in verdict.reports)

    def test_sweep_covers_all_patterns(self, f2):
        q = nilpotent_quotient(f2, 2)  # Heisenberg quotient: 2 levels
        chi = MultiChar(q.target, [[1, 0], [1]])
        verdict = theorem_f(f2, q, chi, 1, Trunc([3, 3], 16))
        assert verdict.patterns == ["++", "+-", "-+", "--"]

    def test_dimension_guard(self, f2):
        Z = free_abelian_group(["u"])
        q = QuotientMap(f2, Z, [Z.generator(0), ()])
        chi = MultiChar(Z, [[1]])
        with pytest.raises(DimensionMismatch):
            theorem_f(f2, q, chi, 2, Trunc([8], 32))  # no relators: top degree 1


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
