import json
from dataclasses import replace

import pytest

from fareyweb import verify
from fareyweb.farey import Frac
from fareyweb.verify import SUITES, Report, run_suite, trichotomy

HALF = Frac(1, 2)


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("theorem42")


def test_report_plumbing():
    rep = Report("demo")
    rep.check_le("close", 1e-12, 1e-9)
    rep.check_ge("positive", 0.5, 0.1)
    assert rep.passed and rep.summary == "2/2"
    assert rep.worst_residual > 0
    rep.check_le("fails", 2.0, 1.0)
    assert not rep.passed
    assert rep.worst_residual == -1.0
    doc = rep.to_dict()
    json.dumps(doc)
    assert doc["summary"] == "2/3"
    assert "FAIL" in rep.to_text()


def test_fact1_order_small():
    rep = run_suite("fact1_order", fracs=(Frac(0, 1), HALF), bs=(1.0, 1.5))
    assert rep.passed, rep.to_text()


def test_theorem1_suite():
    rep = run_suite("theorem1", frac=HALF, bs=(1.0, 1.25, 1.5))
    assert rep.passed, rep.to_text()


def test_theorem1_zero_tongue_single_side():
    rep = run_suite("theorem1", frac=Frac(0, 1), bs=(1.0, 1.2))
    assert rep.passed, rep.to_text()


def test_trichotomy_below_tip():
    res = trichotomy(HALF, 1.05, 3)
    assert res.case == 1
    assert res.psi1 < res.psi2
    assert all(l2 < l1 for l1, l2 in zip(res.L_values, res.L_values[1:]))
    assert all(r2 > r1 for r1, r2 in zip(res.R_values, res.R_values[1:]))
    assert res.L_values[-1] > res.psi2 and res.R_values[-1] < res.psi1


def test_theorem3_single_row():
    rep = run_suite("theorem3", frac=HALF, b=1.05, jmax=3, expect_case=1)
    assert rep.passed, rep.to_text()


def test_theorem4_explicit_b():
    rep = run_suite("theorem4", pairs=((HALF, Frac(1, 3)),), b=1.2)
    assert rep.passed, rep.to_text()


def test_theorem4_rejects_non_ancestor():
    rep = run_suite("theorem4", pairs=((Frac(1, 3), Frac(4, 7)),), b=1.1)
    assert not rep.passed


def test_corollary1_two_step():
    rep = run_suite("corollary1", chain=(HALF, Frac(1, 3)))
    assert rep.passed, rep.to_text()


def test_schwarzian_suite():
    rep = run_suite("schwarzian")
    assert rep.passed, rep.to_text()


def test_fact9_suite():
    rep = run_suite("fact9_tangency", frac=HALF, b=1.4)
    assert rep.passed, rep.to_text()


def test_theorem2_single_child():
    rep = run_suite("theorem2", frac=HALF, jmax=1)
    assert rep.passed, rep.to_text()


def test_tip_cycle_fails_off_the_tip(monkeypatch):
    # 1e-6 off the tip in a, both parent strand equations miss by about 1e-6
    real = verify.tip_by_width
    monkeypatch.setattr(verify, "tip_by_width",
                        lambda f, num: replace(real(f, num), a=real(f, num).a + 1e-6))
    rep = run_suite("tip_cycle", fracs=HALF)
    identities = rep.cases[:2]
    assert all(not c.passed and c.slack < 0 for c in identities), rep.to_text()
    assert not rep.passed


def test_all_suites_registered():
    assert set(SUITES) == {"fact1_order", "theorem1", "theorem2", "theorem3",
                           "theorem4", "corollary1", "theorem5", "schwarzian",
                           "fact9_tangency", "tip_cycle"}
