"""Named verification suites: every structural identity of the engine run as
an executable check, each returning PASS, FAIL, or SKIP with details.

The suites marked as curve-level (topological recursion) skip with a reason
when a configuration violates the analytic assumptions; the series-level
suites are defined for every configuration and treat such violations as
failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .model import AssumptionViolation, EllBounds, ModelParams
from .oracle import build_table, tau_from_table, tau_schur, wgn_oracle
from .ring import MPoly, interpolate
from .slices import (
    elementary_slice_residual, last_passage_check, tilde_transform,
    w01_bijective, w02_annular,
)
from .spectral import (
    assemble_curve, compute_Z, critical_t, insertion_identity_sides,
    solve_bulk_approximation, solve_system, w01, w02,
)
from .toprec import _uniforms, compare_oracle, instantiate_curve, tr_compute

F = Fraction


@dataclass
class CheckResult:
    name: str
    status: str               # PASS | FAIL | SKIP
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "SKIP")


def _rename(ts, mapping):
    return ts.map_coeffs(lambda c: c.rename(mapping) if isinstance(c, MPoly) else c)


CONCORDANCE_MODELS = ((1, 0), (2, 0), (3, 0), (1, 1), (0, 1), (2, 1))

_TABLES: dict = {}
_SYSTEMS: dict = {}


def _concordance_params(m, r, d):
    # deterministic "random small rationals": distinct, nonzero, mixed signs
    u = [F(2 + 3 * i, 5 + i) for i in range(m)] + \
        [F(-(3 + 2 * j), 7 + j) for j in range(r)]
    return ModelParams.make(m, r, u=u, p=[F(1, 3), F(2, 5)],
                            q=[F(3, 7), F(1, 4)], T=d)


def _model_depth(m, r) -> int:
    return 6 if (m, r) == (1, 0) else 4


def _run_cap(r, d) -> int:
    # genus-0 keys at size d carry runs of total length at most 2d - 2
    return 0 if r == 0 else 2 * d - 2


def _cached_table(m, r):
    d = _model_depth(m, r)
    cap = _run_cap(r, d)
    key = (m, r, d, cap)
    if key not in _TABLES:
        params = _concordance_params(m, r, d)
        _TABLES[key] = build_table(params, d, EllBounds(run_max=cap))
    return _TABLES[key]


def _cached_system(m, r):
    """The solved concordance model at its verify depth, shared by the disk
    and cylinder suites together with its memoised Z."""
    d = _model_depth(m, r)
    key = (m, r, d)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = solve_system(_concordance_params(m, r, d))
    return _SYSTEMS[key]


def suite_oracle_vs_schur(cfg=None) -> CheckResult:
    """Enumerated counts against the character expansion, term by term in the
    weight parameters, for the six model shapes."""
    details = {}
    for (m, r) in CONCORDANCE_MODELS:
        d_max = _model_depth(m, r)
        cap = _run_cap(r, d_max)
        params = _concordance_params(m, r, d_max)
        tab = _cached_table(m, r)
        lhs = tau_schur(params, d_max, u_symbolic=True, ell_cap=max(cap, 1))
        rhs = tau_from_table(tab, params, d_max, connected=False,
                             u_symbolic=True)
        ok = (lhs - rhs).is_zero()
        details[f"{m},{r}"] = {"d_max": d_max, "equal": ok}
        if not ok:
            return CheckResult("oracle-vs-schur", "FAIL", details)
    return CheckResult("oracle-vs-schur", "PASS", details)


def suite_disk(cfg=None, oracle_params: ModelParams | None = None) -> CheckResult:
    """Curve-based disk series against the enumeration, plus the path-based
    route for the polynomial models.  `oracle_params` exists for sensitivity
    tests: feeding a corrupted model must flip this suite to FAIL."""
    details = {}
    for (m, r) in CONCORDANCE_MODELS:
        d = _model_depth(m, r)
        sd = _cached_system(m, r)
        params = sd.params
        if oracle_params is not None:
            tab = build_table(oracle_params, d,
                              EllBounds(run_max=_run_cap(r, d)))
            tab_params = oracle_params
        else:
            tab = _cached_table(m, r)
            tab_params = params
        ws = w01(sd)
        wo = _rename(wgn_oracle(tab, tab_params, 0, 1), {"xb1": "xb"})
        ok = (ws - wo).is_zero()
        details[f"{m},{r}"] = {"curve_vs_oracle": ok, "order": d}
        if r == 0:
            td = tilde_transform(sd, params)
            okb = (w01_bijective(td) - ws).is_zero()
            details[f"{m},{r}"]["path_vs_curve"] = okb
            ok = ok and okb
        if not ok:
            return CheckResult("disk", "FAIL", details)
    # deeper window through the enumeration-free oracle
    from .oracle import wgn_via_characters
    p21 = _concordance_params(2, 1, 6)
    deep = (_rename(w01(solve_system(p21)), {"xb": "xb1"})
            - wgn_via_characters(p21, 6, 0, 1)).is_zero()
    details["2,1 deep t^6"] = deep
    return CheckResult("disk", "PASS" if deep else "FAIL", details)


def suite_cylinder(cfg=None) -> CheckResult:
    details = {}
    for (m, r) in CONCORDANCE_MODELS:
        d = _model_depth(m, r)
        sd = _cached_system(m, r)
        params = sd.params
        tab = _cached_table(m, r)
        ws = w02(sd)
        ok = (ws - wgn_oracle(tab, params, 0, 2)).is_zero()
        details[f"{m},{r}"] = {"curve_vs_oracle": ok, "order": d}
        if r == 0:
            td = tilde_transform(sd, params)
            oka = (w02_annular(td) - ws).is_zero()
            oke = all(elementary_slice_residual(td, c).is_zero()
                      for c in range(m))
            okl = all(rr.is_zero() for rr in last_passage_check(td, p_max=3, f_max=3))
            details[f"{m},{r}"].update(
                {"annular_vs_curve": oka, "elementary": oke, "last_passage": okl})
            ok = ok and oka and oke and okl
        if not ok:
            return CheckResult("cylinder", "FAIL", details)
    from .oracle import wgn_via_characters
    p11 = _concordance_params(1, 1, 5)
    deep = (w02(solve_system(p11))
            - wgn_via_characters(p11, 5, 0, 2)).is_zero()
    details["1,1 deep t^5"] = deep
    return CheckResult("cylinder", "PASS" if deep else "FAIL", details)


def _t8_model():
    return ModelParams.make(2, 1, u=[F(1, 2), F(3), F(-1, 3)],
                            p=[F(1, 3), F(2)], q=[F(2, 7), F(1, 5)], T=8)


def suite_h_color_independence(cfg=None) -> CheckResult:
    # assemble_curve asserts cross-color equality internally (exact mode)
    sd = solve_system(_t8_model())
    assemble_curve(sd)
    return CheckResult("h-color-independence", "PASS", {"T": 8, "model": "2,1"})


def suite_artificial_poles(cfg=None) -> CheckResult:
    # append the same weight to both parameter groups of the (2,1) model
    base = _t8_model()
    ext = ModelParams.make(3, 2, u=list(base.u[:2]) + [F(7, 5)]
                           + [base.u[2], F(7, 5)],
                           p=base.p, q=base.q, T=8)
    sb, se = solve_system(base), solve_system(ext)
    checks = {
        "blocks": se.A["c2"] == se.A["c4"] and se.B["c2"] == se.B["c4"],
        "Z": (compute_Z(se) - compute_Z(sb)).is_zero(),
        "H": assemble_curve(se)[2] == assemble_curve(sb)[2],
        "disk": (w01(se) - w01(sb)).is_zero(),
        "cylinder": (w02(se) - w02(sb)).is_zero(),
    }
    status = "PASS" if all(checks.values()) else "FAIL"
    return CheckResult("artificial-poles", status, checks)


def suite_set_to_zero(cfg=None) -> CheckResult:
    p21 = ModelParams.make(2, 1, u=[F(1, 2), 0, F(-1, 3)], p=[F(1, 3), F(2)],
                           q=[F(2, 7), F(1, 5)], T=8, allow_zero_u=True)
    p11 = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2)],
                           q=[F(2, 7), F(1, 5)], T=8)
    sd21, sd11 = solve_system(p21), solve_system(p11)
    c21, c11 = assemble_curve(sd21), assemble_curve(sd11)
    checks = {
        "trivial_blocks": (sd21.A["c1"].window() == (0, 0)
                           and sd21.B["c1"].window() == (0, 0)),
        "Z": (compute_Z(sd21) - compute_Z(sd11)).is_zero(),
        "X": c21[0] == c11[0] and c21[1] == c11[1],
        "Y": c21[2] == c11[2],
    }
    status = "PASS" if all(checks.values()) else "FAIL"
    return CheckResult("set-to-zero", status, checks)


def suite_insertion_identity(cfg=None) -> CheckResult:
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2)],
                              q=[F(2, 7), F(1, 5)], T=6)
    lhs, rhs = insertion_identity_sides(params)
    ok = (lhs - rhs).is_zero()
    return CheckResult("insertion-identity", "PASS" if ok else "FAIL",
                       {"T": 6, "exact": ok})


def tr_acceptance_model() -> ModelParams:
    return ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 6), F(1, 10)],
                            q=[F(1, 5), F(1, 8)], T=6)


def tr_oracle_depth(params: ModelParams, d_max: int) -> int:
    """Largest enumeration size the recursion is checked against: 6, or 4
    with runs or an exponential weight.

    With runs up to length 2d, one size more costs, on a 2-core machine:
    (1,0) at d = 7 2.3 s and 86 MB, (2,1) at d = 5 2.6 s, (1,1) at d = 5
    0.4 s, (1,1) at d = 6 33 s and 101 MB, and an exponential (1,0) at
    d = 6 8.9 s.  Raising a depth changes `verify.json` and the cost of
    `wht tr` and `wht verify`, so it is a change of its own."""
    return min(d_max, 6 if params.r == 0 and not params.has_exp else 4)


def tr_sample_points(n, count=5, seed=3):
    """`count` tuples of n points z = r e^(2 pi i a), r = 2 + 6u and a = u'
    for consecutive draws u, u' of `toprec._uniforms(seed)`: the stream of
    numpy's `default_rng(seed).random()`, seed 3 by default, so the
    points are those every earlier `wht tr` and `verify.json` used."""
    uniform = _uniforms(seed)
    return [tuple((2 + 6 * next(uniform)) * np.exp(2j * np.pi * next(uniform))
                  for _ in range(n)) for _ in range(count)]


def suite_tr_vs_oracle(cfg=None) -> CheckResult:
    """Recursion output against enumerated correlators.  Uses the configured
    model when a config is given (so degenerate configurations surface as
    SKIP); the canonical desk-scale model otherwise."""
    if cfg is not None:
        params = cfg.model
        t_value = cfg.toprec_t
        tol = cfg.tol
        d_max = tr_oracle_depth(params, cfg.d_max)
    else:
        params = tr_acceptance_model()
        t_value = 1e-3
        tol = 1e-6
        d_max = 6
    try:
        sd = solve_system(params)
        curve = instantiate_curve(sd, t_value)
        omega = tr_compute(curve, 1, 3)
    except AssumptionViolation as e:
        return CheckResult("tr-vs-oracle", "SKIP",
                           {"reason": str(e), "clause": e.clause})
    bounds = EllBounds(run_max=2 * d_max,
                       exp_run_max=2 * d_max if params.has_exp else None)
    tab = build_table(params, d_max, bounds)
    oracles = {gn: wgn_oracle(tab, params, *gn)
               for gn in [(0, 1), (0, 2), (0, 3), (1, 1)]}
    samples = {gn: tr_sample_points(gn[1]) for gn in oracles}
    rep = compare_oracle(omega, oracles, curve, samples, tol=tol)
    pole_ok = (omega.min_pole_order(0, 3) == 2
               and omega.max_pole_order(0, 3) == 2
               and omega.max_pole_order(1, 1) <= 4)
    details = {"report": rep, "pole_structure": pole_ok}
    status = "PASS" if (rep["pass"] and pole_ok) else "FAIL"
    return CheckResult("tr-vs-oracle", status, details)


def suite_critical_values(cfg=None) -> CheckResult:
    t01 = critical_t(0, 1)
    t30 = critical_t(3, 0)
    d1 = abs(t01 - 2 / 27) / (2 / 27)
    d2 = abs(t30 - 1 / 8) / (1 / 8)
    ok = d1 <= 1e-6 and d2 <= 1e-6
    return CheckResult("critical-values", "PASS" if ok else "FAIL",
                       {"t01": t01, "t30": t30, "rel_dev": [d1, d2]})


def exp_series_in_v(params: ModelParams, oracle_params: ModelParams):
    """The disk and cylinder series of an exponential model as polynomials in
    its weight v = u_exp, from the curve and from the enumeration.  At t^d
    the genus-0 series have v-degree at most 2d - 2 (free transpositions), so
    2T - 1 nodes and one check node suffice."""
    tab = build_table(oracle_params, params.T,
                      EllBounds(run_max=2 * params.T, exp_run_max=2 * params.T + 2))

    def curve(v):
        sd = solve_system(replace(params, u_exp=v))
        return w01(sd), w02(sd)

    def oracle(v):
        pv = replace(oracle_params, u_exp=v)
        return (_rename(wgn_oracle(tab, pv, 0, 1), {"xb1": "xb"}),
                wgn_oracle(tab, pv, 0, 2))

    nodes = range(2 * params.T)
    return interpolate(curve, "v", nodes), interpolate(oracle, "v", nodes)


def suite_exp_extension(cfg=None, oracle_params: ModelParams | None = None) -> CheckResult:
    """The exponential model exact in v against the enumeration, and the
    1/N convergence of its rational stand-in.  `oracle_params` exists for
    sensitivity tests: feeding a corrupted model must flip this suite to
    FAIL."""
    pe = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                          q=[F(2, 7)], T=3, u_exp=F(1, 5))
    (disk, cyl), (odisk, ocyl) = exp_series_in_v(pe, oracle_params or pe)
    ok1 = (disk - odisk).is_zero()
    ok2 = (cyl - ocyl).is_zero()

    sde = solve_system(pe)
    errs = []
    for N in (10 ** 2, 10 ** 4, 10 ** 6):
        sdb = solve_bulk_approximation(pe, N)
        worst = F(0)
        for lbl in ("c0", "c1"):
            for blk, ref in ((sdb.A[lbl], sde.A[lbl]), (sdb.B[lbl], sde.B[lbl])):
                diff = blk - ref
                for ts in diff.coeffs.values():
                    for c in ts.coeffs:
                        worst = max(worst, abs(c))
        errs.append(worst)
    ratios = [float(errs[i] / errs[i + 1]) for i in range(2) if errs[i + 1] > 0]
    scaling_ok = len(ratios) == 2 and all(50 <= r <= 200 for r in ratios)
    details = {"disk_exact_in_v": ok1, "cylinder_exact_in_v": ok2,
               "bulk_errors": [float(e) for e in errs],
               "bulk_ratios": ratios}
    status = "PASS" if (ok1 and ok2 and scaling_ok) else "FAIL"
    return CheckResult("exp-extension", status, details)


SUITES = {
    "oracle-vs-schur": (suite_oracle_vs_schur, "series"),
    "disk": (suite_disk, "series"),
    "cylinder": (suite_cylinder, "series"),
    "h-color-independence": (suite_h_color_independence, "series"),
    "artificial-poles": (suite_artificial_poles, "series"),
    "set-to-zero": (suite_set_to_zero, "series"),
    "insertion-identity": (suite_insertion_identity, "series"),
    "tr-vs-oracle": (suite_tr_vs_oracle, "tr"),
    "critical-values": (suite_critical_values, "series"),
    "exp-extension": (suite_exp_extension, "series"),
}


def run_suite(name: str, cfg=None) -> CheckResult:
    fn, kind = SUITES[name]
    try:
        return fn(cfg)
    except AssumptionViolation as e:
        if kind == "tr":
            return CheckResult(name, "SKIP", {"reason": str(e),
                                              "clause": e.clause})
        return CheckResult(name, "VIOLATION", {"reason": str(e),
                                               "clause": e.clause})


def run_suites(names, cfg=None, parallel: bool = False,
               max_workers: int | None = None):
    names = list(names)
    if not parallel:
        return [run_suite(n, cfg) for n in names]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(run_suite, n, cfg) for n in names]
        return [f.result() for f in futures]
