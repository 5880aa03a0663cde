import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from wht.model import AssumptionViolation, EllBounds, ModelParams
from wht.oracle import build_table, wgn_oracle
from wht.ring import (
    MPoly, RingDomainError, RingUsageError, TSeries, ZLaurent, ZStream, interpolate,
)
from wht.spectral import (
    _critical_point, assemble_curve, compute_Z, critical_t, formal_branchpoints,
    initial_ramification, insertion_identity_sides, solve_bulk_approximation,
    solve_system, spectral_export, w01, w02, _zl_json,
)
from wht.toprec import instantiate_curve
from wht.verify import CONCORDANCE_MODELS, _concordance_params


def rename_series(ts, mapping):
    return ts.map_coeffs(lambda c: c.rename(mapping) if isinstance(c, MPoly) else c)


GENERIC_11 = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2)],
                              q=[F(2, 7), F(1, 5)], T=4)


# --- the defining system -------------------------------------------------------

def test_order_zero_shapes():
    sd = solve_system(GENERIC_11)
    for c in sd.colors:
        A0 = {e: ts.coeffs[0] for e, ts in sd.A[c.label].coeffs.items() if ts.coeffs[0] != 0}
        assert A0 == {0: 1}
        B = sd.B[c.label]
        assert B.get(0) == TSeries.const(sd.T, 1)
        for s in (1, 2):
            assert B.get(-s).coeffs[0] == c.u * GENERIC_11.p[s - 1]


def test_zero_p_freezes_B():
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[0], q=[F(2, 7)], T=4)
    sd = solve_system(params)
    for c in sd.colors:
        assert sd.B[c.label] == ZLaurent.const(4, 1)
        # A becomes 1 + u_c sum_k q_k t^k z^k
        A = sd.A[c.label]
        assert A.get(1) == TSeries.t_power(4, 1, c.u * F(2, 7))


def test_low_order_A_structure():
    sd = solve_system(GENERIC_11)
    for c in sd.colors:
        for k in (1, 2):
            ts = sd.A[c.label].get(k)
            assert all(ts.coeffs[j] == 0 for j in range(k))
            assert ts.coeffs[k] == c.u * GENERIC_11.q[k - 1]


def test_defining_equation_residuals_vanish():
    from wht.spectral import system_residuals
    for params in (GENERIC_11,
                   ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                                    q=[F(2, 7)], T=3, u_exp=F(1, 4))):
        res = system_residuals(solve_system(params))
        assert all(blk.is_zero() for blk in res.values())


@pytest.mark.parametrize("field, kwargs", [
    ("u", {"u": [0.5, F(-1, 3)]}),
    ("p", {"p": [1 / 3]}),
    ("q", {"q": [F(2, 7), 0.2j]}),
    ("u_exp", {"u_exp": 0.25}),
    # a weight that is a polynomial is interpolated instead (ring.interpolate)
    ("u", {"u": [F(1, 2), MPoly.var("al")]}),
    ("p", {"p": [MPoly.var("al", 1, F(1, 3))]}),
    ("q", {"q": [MPoly.const(F(2, 7))]}),
    ("u_exp", {"u_exp": MPoly.var("v")}),
])
def test_model_rejects_inexact_weights(field, kwargs):
    base = dict(m=1, r=1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)], q=[F(2, 7)], T=3)
    with pytest.raises(ValueError, match=f"^{field} entries"):
        ModelParams(**{**base, **kwargs})


def truncated(zl, order):
    return ZLaurent(order, {e: TSeries(order, ts.coeffs[:order + 1])
                            for e, ts in zl.coeffs.items()})


EXP_11 = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2, 5)],
                          q=[F(2, 7), F(1, 5)], T=8, u_exp=F(1, 5))


@pytest.mark.parametrize("params", [
    _concordance_params(2, 1, 8), _concordance_params(1, 1, 8), EXP_11,
], ids=["21", "11", "exp11"])
def test_solution_truncates_to_the_lower_order_solution(params):
    # the growing-truncation sweeps end on the unique solution at every order
    hi, lo = solve_system(params), solve_system(replace(params, T=6))
    for c in hi.colors:
        assert truncated(hi.A[c.label], 6) == lo.A[c.label]
        assert truncated(hi.B[c.label], 6) == lo.B[c.label]
    if params.has_exp:
        assert truncated(hi.eta, 6) == lo.eta
        assert truncated(hi.theta, 6) == lo.theta


# --- the order-by-order solve against the sweeps ---------------------------------

# the seed-101 (2,1) and (2,0) draws of the benchmark's exact-series workload
SEED101_21 = ModelParams.make(2, 1, u=[F(10, 11), F(8, 13), F(-9, 13)],
                              p=[F(9, 11), F(6, 13)], q=[F(7, 11), F(7, 13)], T=12)
SEED101_20 = ModelParams.make(2, 0, u=[F(10, 11), F(8, 13)],
                              p=[F(7, 11), F(9, 11)], q=[F(9, 13), F(7, 13)], T=12)


def sweep_solution(colors, params):
    """Reference: the growing-truncation sweeps, one evaluation of
    `_system_rhs` per order k = 0..T on the blocks of the sweep before,
    padded by a zero t^k coefficient."""
    from wht.spectral import _system_rhs

    def pad(zl):
        return ZLaurent(zl.order + 1, {e: TSeries(zl.order + 1, ts.coeffs + (0,))
                                       for e, ts in zl.coeffs.items()})
    B = {c.label: ZLaurent.const(0, 1) for c in colors}
    theta = ZLaurent(0) if params.has_exp else None
    for k in range(params.T + 1):
        if k:
            B = {lbl: pad(zl) for lbl, zl in B.items()}
            theta = pad(theta) if params.has_exp else None
        A, B, eta, theta = _system_rhs(colors, replace(params, T=k), B, theta)
    return A, B, eta, theta


def listing(zl):
    """Every coefficient by repr, which tells int from Fraction, with the
    z-exponents in the order of the block."""
    return [(e, repr(ts)) for e, ts in zl.coeffs.items()]


SWEEP_CASES = {
    **{f"{m}{r}": _concordance_params(m, r, 6) for (m, r) in CONCORDANCE_MODELS},
    "seed101-21": SEED101_21, "seed101-20": SEED101_20,
    "exp": EXP_11,
    # D1 = D2 = 3: at orders k < 2 the sweeps multiply by t^s with s > k + 1
    "D3": ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2), F(3, 4)],
                           q=[F(2, 7), F(1, 5), F(5, 3)], T=6, u_exp=F(1, 7)),
    # integer weights, and p = 0 with integer q, whose eta stays integer
    "unit": ModelParams.make(2, 1, u=[1, 1, -1], p=[1], q=[1], T=8),
    "p0-exp": ModelParams.make(1, 0, u=[F(1, 2)], p=[0], q=[2, 3], T=5, u_exp=F(1, 3)),
}


@pytest.mark.parametrize("sd", [
    *(pytest.param(lambda p=p: solve_system(p), id=name) for name, p in SWEEP_CASES.items()),
    pytest.param(lambda: solve_bulk_approximation(replace(EXP_11, T=6), 3), id="bulk3"),
])
def test_solve_equals_the_sweeps_bit_for_bit(sd):
    sd = sd()
    A, B, eta, theta = sweep_solution(sd.colors, sd.params)
    for c in sd.colors:
        assert listing(sd.A[c.label]) == listing(A[c.label])
        assert listing(sd.B[c.label]) == listing(B[c.label])
    assert (sd.eta is None) == (eta is None)
    if eta is not None:
        assert listing(sd.eta) == listing(eta)
        assert listing(sd.theta) == listing(theta)


@pytest.mark.parametrize("params, digest", [
    (SEED101_21, "8c335425a85be54965ee2992867b386161d73ff1053f2e36cef1f705b79d4246"),
    (EXP_11, "79a814df1fbeb735f3d97856d3e2bb914fdea41a4d2159477506f6e943954cde"),
], ids=["seed101-21", "exp"])
def test_solved_blocks_keep_their_digest(params, digest):
    # SHA-256 of the exported blocks as the growing-truncation sweeps solved them
    sd = solve_system(params)
    doc = {"A": {c.label: _zl_json(sd.A[c.label]) for c in sd.colors},
           "B": {c.label: _zl_json(sd.B[c.label]) for c in sd.colors}}
    if sd.eta is not None:
        doc["eta"], doc["theta"] = _zl_json(sd.eta), _zl_json(sd.theta)
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_solve_evaluates_the_system_once(monkeypatch):
    # once over ZStream blocks, then once more over their ZLaurent values
    import wht.spectral as spectral
    calls = []
    rhs = spectral._system_rhs
    monkeypatch.setattr(spectral, "_system_rhs", lambda *a: calls.append(a) or rhs(*a))
    solve_system(EXP_11)
    assert len(calls) == 2
    for blocks, kind in zip(calls, (ZStream, ZLaurent)):
        _, _, B, theta = blocks
        assert all(type(b) is kind for b in (*B.values(), theta))


def test_solve_leaves_no_reference_cycles():
    # the blocks of a solve are freed by reference counting; cyclic garbage
    # would stay in memory, and raise its peak, until the collector ran
    gc.collect()
    gc.disable()
    try:
        solve_system(EXP_11)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_raises_when_not_stationary(monkeypatch):
    # the solve and its check run on the same slice kernels, so a kernel error
    # that both apply alike is a fixed point; the check is there to catch a
    # wrong slice fed back into B or theta, here a z^-1 term added to slice 2
    # of theta
    import wht.ring as ring
    unknowns = []
    unknown, feed = ring.ZStream.unknown, ring.ZStream.feed
    monkeypatch.setattr(ring.ZStream, "unknown", staticmethod(
        lambda order: unknowns.append(unknown(order)) or unknowns[-1]))

    def perturbed(blk, sl):
        if blk is unknowns[-1] and len(blk.slices) == 2:
            sl = ring._add(sl, ring._Slice([(-1, 1)], 1))
        feed(blk, sl)
    monkeypatch.setattr(ring.ZStream, "feed", perturbed)
    with pytest.raises(RingDomainError, match="stationary"):
        solve_system(EXP_11)
    assert len(unknowns) == 3           # B of both colors, then theta


# --- Z and the curve ------------------------------------------------------------

def z_by_fixed_point(sd):
    """Reference: T + 1 passes of Z <- xb * Phi(Z) from Z = xb."""
    from wht.spectral import _z_rhs
    xb = TSeries.const(sd.T, MPoly.var("xb"))
    Z = xb
    for _ in range(sd.T + 1):
        Z = _z_rhs(sd, Z, xb)
    return Z


@pytest.mark.parametrize("params", [
    *(_concordance_params(m, r, 6) for (m, r) in CONCORDANCE_MODELS),
    replace(EXP_11, T=5),
], ids=[f"{m}{r}" for (m, r) in CONCORDANCE_MODELS] + ["exp"])
def test_Z_by_lagrange_inversion_equals_fixed_point(params):
    sd = solve_system(params)
    assert repr(compute_Z(sd)) == repr(z_by_fixed_point(sd))


def test_compute_Z_raises_when_Z_is_no_fixed_point(monkeypatch):
    # Lagrange inversion reads Phi through _stream and the check evaluates
    # the blocks at Z: a Phi off by t^T makes Z wrong at t^T, so the check
    # must raise
    import wht.spectral as spectral
    stream = spectral._stream

    def perturbed(phi):
        T = phi.order
        return stream(phi + ZLaurent(T, {0: TSeries.t_power(T, T)}))
    monkeypatch.setattr(spectral, "_stream", perturbed)
    for params in (replace(EXP_11, T=4), _concordance_params(1, 0, 4)):
        with pytest.raises(RingDomainError, match="fixed point"):
            compute_Z(solve_system(params))


def test_Z_of_bulk_model_powers_the_multiplicity():
    # one color of multiplicity 10**6: a loop over the multiplicity would not
    # finish; binary powering takes about 20 products
    t0 = time.perf_counter()
    sd = solve_bulk_approximation(replace(EXP_11, T=4), 10 ** 6)
    Z = compute_Z(sd)
    assert time.perf_counter() - t0 < 2.0
    assert repr(Z) == repr(z_by_fixed_point(sd))


def test_Z_order_zero_and_simple_coefficient():
    # with p = 0, D1 = D2 = 1: Z = xb + u q t xb^2 + O(t^2)
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[0], q=[F(2, 7)], T=2)
    Z = compute_Z(solve_system(params))
    assert Z.coeffs[0] == MPoly.var("xb")
    assert Z.coeffs[1] == MPoly.var("xb", 2, F(1, 2) * F(2, 7))


def test_X_of_Z_is_identity():
    params = ModelParams.make(2, 1, u=[F(1, 2), F(3), F(-1, 3)],
                              p=[F(1, 3), F(2)], q=[F(2, 7), F(1, 5)], T=5)
    sd = solve_system(params)
    Z = compute_Z(sd)
    Xnum, Xden, _ = assemble_curve(sd)
    lhs = Xnum.eval_series(Z) * TSeries.const(5, MPoly.var("xb")) - Z * Xden.eval_series(Z)
    assert lhs.is_zero()


def test_curve_at_Z_gives_x_and_disk_value():
    from wht.spectral import curve_at
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                              q=[F(2, 7), F(1, 5)], T=4)
    sd = solve_system(params)
    Z = compute_Z(sd)
    xinv = TSeries.const(4, MPoly.var("xb", -1))
    Zinv = (Z * xinv).invert() * xinv
    X, Y = curve_at(sd, Z, Zinv)
    assert X == TSeries.const(4, MPoly.var("xb", -1))      # X(Z(x)) = x
    # Y(Z(x)) is the disk value plus the internal-face shift
    expect = w01(sd) + TSeries(4, [MPoly.var("xb", 1 - k) * params.p[k - 1]
                                   for k in (1,)] + [MPoly()] * 4)
    assert (Y - expect).is_zero()


def test_H_color_independence_is_asserted():
    # assemble_curve raises internally on any cross-color mismatch
    params = ModelParams.make(2, 1, u=[F(1, 2), F(3), F(-1, 3)],
                              p=[F(1, 3), F(2)], q=[F(2, 7), F(1, 5)], T=6)
    assemble_curve(solve_system(params))


def test_curve_product_identity():
    # X Y = H holds by construction; check the t^0 curve shape for r=0:
    # X = 1/z, Y = sum p_s z^(1-s), H = sum p_s z^-s at order 0
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 3), F(2)], q=[F(2, 7)], T=2)
    sd = solve_system(params)
    _, _, H = assemble_curve(sd)
    for s in (1, 2):
        assert H.get(-s).coeffs[0] == params.p[s - 1]


# --- disk and cylinder -----------------------------------------------------------

@pytest.mark.parametrize("m,r,u,p,q", [
    (1, 0, [F(1, 2)], [F(1, 3)], [F(2, 7)]),
    (2, 0, [F(1, 2), F(5, 3)], [F(1, 3), F(1, 5)], [F(2, 7), F(3)]),
    (1, 1, [F(1, 2), F(-1, 3)], [F(1, 3)], [F(2, 7)]),
    (0, 1, [F(-1, 3)], [F(1, 3), F(1, 5)], [F(2, 7), F(3)]),
])
def test_disk_and_cylinder_match_oracle(m, r, u, p, q):
    d = 3
    params = ModelParams.make(m, r, u=u, p=p, q=q, T=d)
    sd = solve_system(params)
    tab = build_table(params, d, EllBounds(run_max=2 * d))
    assert (w01(sd) - rename_series(
        wgn_oracle(tab, params, 0, 1), {"xb1": "xb"})).is_zero()
    assert (w02(sd) - wgn_oracle(tab, params, 0, 2)).is_zero()


def test_disk_t0_vanishes_and_no_nonnegative_powers():
    w = w01(solve_system(GENERIC_11))
    assert w.coeffs[0].is_zero()
    for c in w.coeffs:
        assert all(dict(m).get("xb", 0) >= 2 for m in c.terms)


def divided_difference(Z):
    """Reference: R with R (xb1 - xb2) = Z(xb1) - Z(xb2) for Z a series of
    polynomials in xb, from (xb1^e - xb2^e) / (xb1 - xb2) =
    sum_(a+b=e-1) xb1^a xb2^b term by term."""
    def dd(c):
        out = MPoly()
        for m, v in c.terms.items():
            e = dict(m)["xb"]
            for a in range(e):
                out = out + MPoly.var("xb1", a) * MPoly.var("xb2", e - 1 - a, v)
        return out
    return Z.map_coeffs(dd)


def series_log(a):
    """Reference: log a for a = 1 + O(t), term by term from t a' = a (t L'):
    k L_k = k a_k - sum_(0<j<k) j L_j a_(k-j)."""
    assert a.coeffs[0] == 1
    M = [0] * (a.order + 1)             # M_k = k L_k
    for k in range(1, a.order + 1):
        M[k] = a.coeffs[k] * k
        for j in range(1, k):
            M[k] = M[k] - M[j] * a.coeffs[k - j]
    return TSeries(a.order, [0] + [M[k] * F(1, k) for k in range(1, a.order + 1)])


def cylinder_by_log(sd):
    """Reference: xb1^2 xb2^2 d1 d2 log R with R the divided difference of Z."""
    pref = MPoly.var("xb1", 2) * MPoly.var("xb2", 2)
    logR = series_log(divided_difference(compute_Z(sd)))
    return logR.map_coeffs(lambda c: (c if isinstance(c, MPoly) else MPoly.const(c))
                           .diff("xb1").diff("xb2") * pref)


def test_reference_divided_difference_reconstructs():
    Z = TSeries(2, [MPoly.var("xb"), 3 * MPoly.var("xb", 2) + MPoly.var("xb", 4),
                    MPoly.var("xb", 3)])
    lin = MPoly.var("xb1") - MPoly.var("xb2")
    assert (divided_difference(Z).scale(lin)
            == rename_series(Z, {"xb": "xb1"}) - rename_series(Z, {"xb": "xb2"}))


def test_reference_series_log():
    f = TSeries(4, [0, MPoly.var("x"), F(2, 3), MPoly.var("x", 2, 5), F(-1, 7)])
    assert series_log(f.exp()) == f
    assert series_log(TSeries(3, [1, 1, 0, 0])) == TSeries(3, [0, 1, F(-1, 2), F(1, 3)])


@pytest.mark.parametrize("params", [
    *(_concordance_params(m, r, T) for T in (6, 12) for (m, r) in CONCORDANCE_MODELS),
    EXP_11,
], ids=[f"{m}{r}-T{T}" for T in (6, 12) for (m, r) in CONCORDANCE_MODELS] + ["exp11"])
def test_cylinder_from_the_powers_of_phi_is_the_log_route(params):
    sd = solve_system(params)
    w, ref = w02(sd), cylinder_by_log(sd)
    assert w == ref and repr(w) == repr(ref)


@pytest.mark.parametrize("params", [
    GENERIC_11, _concordance_params(2, 1, 5), replace(EXP_11, T=4),
], ids=["11", "21", "exp11"])
def test_cylinder_is_the_divided_log_derivative(params):
    # the defining form, checked by multiplication, with no division:
    # w02 (xb1 - xb2)^2 = xb1^2 xb2^2 (Z'(xb1) Z'(xb2) / R^2 - 1)
    sd = solve_system(params)
    Z = compute_Z(sd)
    dZ = Z.map_coeffs(lambda c: c.diff("xb"))
    Rinv = divided_difference(Z).invert()
    rhs = (rename_series(dZ, {"xb": "xb1"}) * rename_series(dZ, {"xb": "xb2"})
           * Rinv * Rinv - TSeries.const(sd.T, 1))
    rhs = rhs.scale(MPoly.var("xb1", 2) * MPoly.var("xb2", 2))
    lin = MPoly.var("xb1") - MPoly.var("xb2")
    assert (w02(sd).scale(lin * lin) - rhs).is_zero()


def test_cylinder_symmetry():
    w = w02(solve_system(GENERIC_11))
    sw = w.map_coeffs(lambda c: c.rename({"xb1": "t_", "xb2": "xb1"}).rename({"t_": "xb2"}))
    assert (w - sw).is_zero()


def test_disk_21_matches_character_oracle_to_t6():
    # beyond exhaustive-enumeration reach; the graded character route covers it
    from wht.oracle import wgn_via_characters
    params = ModelParams.make(2, 1, u=[F(2, 5), F(5, 6), F(-3, 7)],
                              p=[F(1, 3), F(2, 5)], q=[F(3, 7), F(1, 4)], T=6)
    ws = rename_series(w01(solve_system(params)), {"xb": "xb1"})
    assert (ws - wgn_via_characters(params, 6, 0, 1)).is_zero()


def test_cylinder_11_matches_character_oracle_to_t5():
    from wht.oracle import wgn_via_characters
    params = ModelParams.make(1, 1, u=[F(2, 5), F(-3, 7)],
                              p=[F(1, 3), F(2, 5)], q=[F(3, 7), F(1, 4)], T=5)
    ws = w02(solve_system(params))
    assert (ws - wgn_via_characters(params, 5, 0, 2)).is_zero()


def test_exponential_disk_cylinder_match_oracle():
    # exact in v = u_exp: both sides interpolated from rational nodes v
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                              q=[F(2, 7)], T=3, u_exp=F(1, 5))
    tab = build_table(params, 3, EllBounds(run_max=6, exp_run_max=8))

    def curve(v):
        sd = solve_system(replace(params, u_exp=v))
        return w01(sd), w02(sd)

    def oracle(v):
        pv = replace(params, u_exp=v)
        return (rename_series(wgn_oracle(tab, pv, 0, 1), {"xb1": "xb"}),
                wgn_oracle(tab, pv, 0, 2))
    nodes = [F(k, 3) for k in range(6)]         # v-degree <= 2T - 2 = 4
    (disk, cyl), (odisk, ocyl) = interpolate(curve, "v", nodes), interpolate(oracle, "v", nodes)
    assert (disk - odisk).is_zero() and (cyl - ocyl).is_zero()
    # the t^2 disk coefficient depends on v
    assert disk.coeffs[2].coefficient_of("v", 2) == MPoly.var("xb", 2, F(2, 147))


# --- stability and invariance -----------------------------------------------------

def test_set_to_zero_stability():
    p21 = ModelParams.make(2, 1, u=[F(1, 2), 0, F(-1, 3)], p=[F(1, 3), F(2)],
                           q=[F(2, 7), F(1, 5)], T=8, allow_zero_u=True)
    p11 = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2)],
                           q=[F(2, 7), F(1, 5)], T=8)
    sd21, sd11 = solve_system(p21), solve_system(p11)
    assert sd21.A["c1"] == ZLaurent.const(8, 1)
    assert sd21.B["c1"] == ZLaurent.const(8, 1)
    assert (compute_Z(sd21) - compute_Z(sd11)).is_zero()
    for a, b in zip(assemble_curve(sd21), assemble_curve(sd11)):
        assert a == b


def test_artificial_pole_invariance():
    base = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2)],
                            q=[F(2, 7), F(1, 5)], T=8)
    ext = ModelParams.make(2, 2, u=[F(1, 2), F(7, 5), F(-1, 3), F(7, 5)],
                           p=[F(1, 3), F(2)], q=[F(2, 7), F(1, 5)], T=8)
    sb, se = solve_system(base), solve_system(ext)
    assert se.A["c1"] == se.A["c3"] and se.B["c1"] == se.B["c3"]
    assert (compute_Z(se) - compute_Z(sb)).is_zero()
    assert assemble_curve(se)[2] == assemble_curve(sb)[2]
    assert (w01(se) - w01(sb)).is_zero()
    assert (w02(se) - w02(sb)).is_zero()


def test_insertion_identity():
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3), F(2)],
                              q=[F(2, 7), F(1, 5)], T=4)
    lhs, rhs = insertion_identity_sides(params)
    assert (lhs - rhs).is_zero()


def test_bulk_approximation_error_scales_like_1_over_N():
    pe = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)], q=[F(2, 7)],
                          T=3, u_exp=F(1, 5))
    sde = solve_system(pe)
    errs = []
    for N in (10 ** 2, 10 ** 4):
        sdb = solve_bulk_approximation(pe, N)
        worst = F(0)
        for lbl in ("c0", "c1"):
            for blk, ref in ((sdb.A[lbl], sde.A[lbl]), (sdb.B[lbl], sde.B[lbl])):
                diff = blk - ref
                for ts in diff.coeffs.values():
                    for c in ts.coeffs:
                        worst = max(worst, abs(c))
        errs.append(worst)
    assert errs[1] > 0
    assert F(50) <= errs[0] / errs[1] <= F(200)


# --- ramification -----------------------------------------------------------------

def test_initial_ramification_square_model():
    params = ModelParams.make(1, 0, u=[F(1)], p=[F(1)], q=[0, F(1)], T=2)
    roots = sorted(initial_ramification(params), key=lambda z: z.real)
    assert len(roots) == 2
    assert abs(roots[0] + 1) < 1e-12 and abs(roots[1] - 1) < 1e-12


def test_initial_ramification_degenerate_model():
    params = ModelParams.make(1, 0, u=[F(1)], p=[F(1)], q=[F(1)], T=2)
    with pytest.raises(AssumptionViolation) as err:
        initial_ramification(params)
    assert err.value.clause == "root-count"


def test_initial_ramification_count():
    params = ModelParams.make(2, 1, u=[F(1, 2), F(3), F(-1, 3)],
                              p=[F(1, 3), F(2)], q=[F(2, 7), F(1, 5)], T=2)
    assert len(initial_ramification(params)) == 6


def test_formal_branchpoints_residual():
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                              q=[F(2, 7), F(1, 5)], T=6)
    bp = formal_branchpoints(solve_system(params), depth=5)
    assert len(bp.initial) == 4
    assert bp.residual < 1e-10


@pytest.mark.parametrize("m, r, u, u_exp", [
    (1, 1, [F(1, 2), F(-1, 3)], None), (1, 0, [F(1, 2)], None),
    (1, 0, [F(1, 2)], F(1, 5)), (2, 1, [F(1, 2), F(1, 3), F(-1, 3)], None)],
    ids=["1-1-u0", "1-0-u1", "exp-1-0", "2-1"])
@pytest.mark.parametrize("t", [1e-3, 1e-2])
def test_formal_branchpoints_match_the_numeric_curve(m, r, u, u_exp, t):
    # (a_i + sum_k f_k t^k) / t against the roots instantiate_curve finds at t.
    # Both routes truncate after t^7, so the weights keep the coefficients
    # small: with a weight 3 in place of 1/3 they grow about fivefold per
    # order, and at t = 1e-2 both routes are off by about 1e-11
    params = ModelParams.make(m, r, u=u, p=[F(1, 3), F(2, 5)],
                              q=[F(2, 7), F(1, 5)], T=7, u_exp=u_exp)
    sd = solve_system(params)
    bp = formal_branchpoints(sd, depth=6)
    numeric = instantiate_curve(sd, t).branchpoints
    assert len(numeric) == len(bp.initial) == 2 * (m + r + (u_exp is not None))
    nearest = []
    for i in range(len(bp.initial)):
        b = bp.value_at(i, t)
        j = min(range(len(numeric)), key=lambda j: abs(numeric[j] - b))
        assert abs(numeric[j] - b) <= 1e-12 * abs(b)
        nearest.append(j)
    assert sorted(nearest) == list(range(len(numeric)))


# the solved blocks fix the ramification points through t^(T - D2 + 1)
EXACT_DEPTH_MODELS = {
    "(1,1) D2=2": dict(m=1, r=1, u=[F(1, 2), F(-1, 3)], q=[F(2, 7), F(1, 5)]),
    "(2,0) D2=3": dict(m=2, r=0, u=[F(1, 2), F(3)], q=[F(2, 7), F(1, 5), F(1, 9)]),
    "(1,1) D2=4": dict(m=1, r=1, u=[F(1, 2), F(-1, 3)],
                       q=[F(2, 7), F(1, 5), F(1, 9), F(1, 11)]),
    "exp (1,0)": dict(m=1, r=0, u=[F(1, 2)], q=[F(2, 7), F(1, 5)], u_exp=F(1, 5)),
}


@pytest.mark.parametrize("name", EXACT_DEPTH_MODELS)
def test_formal_branchpoints_are_exact_to_their_depth_bound(name):
    # every coefficient the depth bound admits equals that of a solve 10
    # orders deeper; one order more is refused
    T = 6
    kw = dict(EXACT_DEPTH_MODELS[name], p=[F(1, 3), F(2, 5)])
    params = ModelParams.make(**kw, T=T)
    bound = T - params.D2 + 1
    bp = formal_branchpoints(solve_system(params), depth=bound)
    deep = formal_branchpoints(solve_system(ModelParams.make(**kw, T=T + 10)),
                               depth=bound)
    assert bp.initial == deep.initial
    for row, ref in zip(bp.formal, deep.formal):
        assert len(row) == bound
        for c, c_ref in zip(row, ref):
            assert abs(c - c_ref) <= 1e-12 * abs(c_ref)
    with pytest.raises(RingUsageError):
        formal_branchpoints(solve_system(params), depth=bound + 1)
    # below T = D2 the blocks lack their top coefficient: no depth is fixed
    with pytest.raises(RingUsageError):
        formal_branchpoints(solve_system(replace(params, T=params.D2 - 1)), depth=0)


def test_formal_branchpoints_scaling_case():
    # with p = 0 the curve depends on t z only: no corrections beyond a_i / t
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[0],
                              q=[F(2, 7), F(1, 5)], T=6)
    bp = formal_branchpoints(solve_system(params), depth=4)
    assert max(abs(c) for row in bp.formal for c in row) < 1e-12


# --- critical values ---------------------------------------------------------------

def test_critical_values_match_known_constants():
    # one unknown: t = (1-V) V^(r+1)/(r+1) and t = (U-1)/((m-1) U^(m-1)),
    # with 2/27 at (0, 1) and 1/8 at (3, 0)
    for r in range(1, 5):
        exact = (r + 1) ** r / (r + 2) ** (r + 2)
        assert abs(critical_t(0, r) - exact) <= 1e-12 * exact
    for m in range(3, 6):
        exact = (m - 2) ** (m - 2) / (m - 1) ** m
        assert abs(critical_t(m, 0) - exact) <= 1e-12 * exact
    # the values of the former Groebner-basis elimination
    for (m, r), old in {(1, 1): 0.05066921413383986, (1, 2): 0.025374148742111413,
                        (1, 3): 0.015452945315651499}.items():
        assert abs(critical_t(m, r) - old) <= 1e-12 * old


NO_CRITICAL_VALUE = [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("m, r", NO_CRITICAL_VALUE)
def test_critical_t_without_critical_value_raises(m, r):
    # (1, 0): U = 1 for every t; (2, 0): t = 1 - 1/U grows without a maximum
    with pytest.raises(RingDomainError):
        critical_t(m, r)


def _one_point(m, r, y, t):
    """Residuals and Jacobian of the unit-weight one-point system in the
    unknowns y = (U if m, V if r), each equation as terms c t^k U^a V^b."""
    U, V = (y[0] if m else 1.0), (y[-1] if r else 1.0)
    eqs = []
    if m:
        eqs.append([(1, 0, 1, 0), (-1, 0, 0, 0), (1 - m, 1, m - 1, -r),
                    (-r, 1, m, -r - 1)])
    if r:
        eqs.append([(1, 0, 0, 1), (-1, 0, 0, 0), (m, 1, m - 1, -r),
                    (r + 1, 1, m, -r - 1)])
    res = np.array([sum(c * t ** k * U ** a * V ** b for c, k, a, b in eq)
                    for eq in eqs])
    dU = [sum(c * t ** k * a * U ** (a - 1) * V ** b for c, k, a, b in eq)
          for eq in eqs]
    dV = [sum(c * t ** k * b * U ** a * V ** (b - 1) for c, k, a, b in eq)
          for eq in eqs]
    jac = np.array([col for col, on in ((dU, m), (dV, r)) if on]).T
    return res, jac


def _continue(m, r, y, ts):
    """Newton continuation along ts; det J must keep the sign it has at
    t = 0 (J = 1 there), so no fold is crossed on the way."""
    for t in ts:
        for _ in range(30):
            res, jac = _one_point(m, r, y, t)
            y = y - np.linalg.solve(jac, res)
            if np.abs(res).max() < 1e-14:
                break
        assert np.linalg.det(_one_point(m, r, y, t)[1]) > 0
    return y


# (1, 10), (6, 2) and (10, 4): the smallest positive stationary value of t
# lies off the branch (2.9e-11, 7.6e-4 and 1.9e-11)
@pytest.mark.parametrize("m, r", [(m, r) for m in range(4) for r in range(4)
                                  if (m, r) not in NO_CRITICAL_VALUE]
                         + [(1, 10), (6, 2), (10, 4)])
def test_critical_point_is_the_first_fold_of_the_branch(m, r):
    tc, U, V = _critical_point(m, r)
    assert tc == critical_t(m, r) and tc > 0
    y_c = np.array([v for v, on in ((U, m), (V, r)) if on])
    res, jac = _one_point(m, r, y_c, tc)
    assert np.abs(res).max() < 1e-10 and abs(np.linalg.det(jac)) < 1e-10
    # the branch from U = V = 1 reaches 0.99 t_c without a fold, then tends
    # to the returned point (as sqrt(t_c - t): 1e-4 apart at 1 - 1e-8)
    y = _continue(m, r, np.ones(len(y_c)), np.linspace(0, 0.99 * tc, 100)[1:])
    y = _continue(m, r, y, tc * (1 - 0.01 * 0.5 ** np.arange(1, 21)))
    assert np.abs(y - y_c).max() < 1e-3


def test_critical_values_suite_imports_only_numpy():
    # the suite loads no package beyond the standard library and numpy
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from wht.verify import run_suite\n"
            "assert run_suite('critical-values').status == 'PASS'\n"
            "new = {n.partition('.')[0] for n in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'wht'}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solver_matches_one_point_system():
    # D1 = D2 = 1, unit weights: the z^0 coefficients of A satisfy the closed
    # one-point fixed-point system U = 1 + 2 t U^2 for (m, r) = (3, 0)
    params = ModelParams.make(3, 0, u=[F(1)] * 3, p=[F(1)], q=[F(1)], T=8)
    sd = solve_system(params)
    U = sd.A["c0"].get(0)
    rhs = 1 + (U * U).scale(2).tshift(1)
    assert U == rhs


@pytest.mark.parametrize("m, r", [(3, 0), (1, 1), (0, 1), (2, 1)])
def test_series_ratios_approach_the_critical_value(m, r):
    # unit weights, D1 = D2 = 1: a_n = [t^n][z^0] A_c0 grows like t_c^-n
    # n^-3/2, so the Domb-Sykes estimate n r_n - (n-1) r_(n-1) of the ratios
    # r_n = a_n / a_(n-1) tends to 1 / t_c, with an error O(1/n^2); at
    # T = 24 it reads 0.25% off for (3,0) and under 0.05% for the others
    T = 24
    params = ModelParams.make(m, r, u=[1] * m + [-1] * r, p=[1], q=[1], T=T)
    a = solve_system(params).A["c0"].get(0).coeffs
    estimate = T * a[T] / a[T - 1] - (T - 1) * a[T - 1] / a[T - 2]
    assert abs(estimate * critical_t(m, r) - 1) < 0.01


# --- export -----------------------------------------------------------------------

def test_spectral_export_shape():
    sd = solve_system(GENERIC_11)
    bp = None
    out = spectral_export(sd, bp)
    assert set(out["curve"]) == {"X_num_coeffs", "X_den_coeffs", "H_coeffs"}
    assert "c0" in out["A"] and "c1" in out["B"]
