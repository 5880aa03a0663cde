"""Acceptance criteria, one test per criterion, each printed as a pass/fail
line.  Tolerances are pinned here: exact equality for every series-level
criterion, 1e-6 relative for the numeric recursion and the critical values.
"""

from wht.oracle import tau_from_table, tau_schur, wgn_oracle
from wht.ring import MPoly
from wht.slices import tilde_transform, w01_bijective, w02_annular
from wht.spectral import critical_t, solve_system, w01, w02
from wht.verify import (
    CONCORDANCE_MODELS, _cached_table, _concordance_params, _model_depth,
    _run_cap, run_suite, suite_exp_extension,
    suite_insertion_identity, suite_tr_vs_oracle,
)


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def rename(ts, mapping):
    return ts.map_coeffs(lambda c: c.rename(mapping) if isinstance(c, MPoly) else c)


_solved = {}


def solved(m, r):
    if (m, r) not in _solved:
        params = _concordance_params(m, r, _model_depth(m, r))
        _solved[(m, r)] = (params, solve_system(params))
    return _solved[(m, r)]


def test_criterion_01_oracle_concordance():
    ok = True
    for (m, r) in CONCORDANCE_MODELS:
        d = _model_depth(m, r)
        cap = _run_cap(r, d)
        params, _ = solved(m, r)
        tab = _cached_table(m, r)
        lhs = tau_schur(params, d, u_symbolic=True, ell_cap=max(cap, 1))
        rhs = tau_from_table(tab, params, d, connected=False, u_symbolic=True)
        ok = ok and (lhs - rhs).is_zero()
    report(1, ok, "enumeration equals the character expansion exactly, "
                  "six models, d<=4 (d<=6 for (1,0))")


def test_criterion_02_disk_theorem():
    ok = True
    for (m, r) in CONCORDANCE_MODELS:
        params, sd = solved(m, r)
        tab = _cached_table(m, r)
        ws = w01(sd)
        ok = ok and (
            ws - rename(wgn_oracle(tab, params, 0, 1), {"xb1": "xb"})).is_zero()
        if r == 0:
            td = tilde_transform(sd, params)
            ok = ok and (w01_bijective(td) - ws).is_zero()
    report(2, ok, "disk series: curve value equals enumeration exactly; "
                  "path route agrees for polynomial weights")


def test_criterion_03_cylinder_theorem():
    ok = True
    for (m, r) in CONCORDANCE_MODELS:
        params, sd = solved(m, r)
        tab = _cached_table(m, r)
        ws = w02(sd)
        ok = ok and (ws - wgn_oracle(tab, params, 0, 2)).is_zero()
        if r == 0:
            td = tilde_transform(sd, params)
            ok = ok and (w02_annular(td) - ws).is_zero()
    report(3, ok, "cylinder series: curve form equals enumeration exactly; "
                  "annular sum agrees for polynomial weights")


def test_criterion_04_h_independence_and_artificial_poles():
    r1 = run_suite("h-color-independence")
    r2 = run_suite("artificial-poles")
    ok = r1.status == "PASS" and r2.status == "PASS"
    report(4, ok, "common Laurent block identical across colors and invariant "
                  "under an artificial shared weight, T=8, (2,1) model")


def test_criterion_05_set_to_zero():
    r = run_suite("set-to-zero")
    report(5, r.status == "PASS",
           "zeroing the last numerator weight reproduces the smaller model's "
           "Z, X, Y exactly at T=8")


def test_criterion_06_insertion_identity():
    r = suite_insertion_identity()
    report(6, r.status == "PASS",
           "deformation rate of the disk curve equals the insertion-operator "
           "image of the cylinder, exact at T=6")


_tr_result = {}


def test_criterion_07_tr_matches_oracle():
    res = suite_tr_vs_oracle(None)
    _tr_result["res"] = res
    cases = res.details.get("report", {}).get("cases", {})
    strict = all(cases[k]["max"] <= 1e-6 for k in ("0,3", "1,1") if k in cases)
    ok = res.status == "PASS" and strict and len(cases) == 4
    devs = {k: cases[k]["max"] for k in cases}
    report(7, ok, f"recursion matches enumerated correlators at t=1e-3, "
                  f"5 samples, rel dev <= 1e-6 (got {devs})")


def test_criterion_08_pole_structure():
    res = _tr_result.get("res") or suite_tr_vs_oracle(None)
    ok = res.details.get("pole_structure", False)
    report(8, ok, "three-point poles of order exactly 2; one-holed-torus "
                  "poles of order <= 4; nothing outside branchpoint poles")


def test_criterion_09_critical_values():
    t01 = critical_t(0, 1)
    t30 = critical_t(3, 0)
    ok = (abs(t01 - 2 / 27) / (2 / 27) <= 1e-6
          and abs(t30 - 1 / 8) / (1 / 8) <= 1e-6)
    report(9, ok, f"dominant singularities 2/27 and 1/8 recovered "
                  f"(got {t01:.9f}, {t30:.9f})")


def test_criterion_10_exponential_extension():
    r = suite_exp_extension()
    ok = r.status == "PASS"
    ratios = r.details.get("bulk_ratios")
    report(10, ok, f"exp-weight disk/cylinder exact in the weight variable "
                   f"through d=3; finite-N error falls like 1/N "
                   f"(ratios {ratios})")
