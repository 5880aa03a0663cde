from fractions import Fraction as F

import pytest

from wht.model import EllBounds, ModelParams
from wht.oracle import build_table, wgn_oracle
from wht.ring import TSeries, is_zero
from wht.slices import (
    UnsupportedModel, elementary_slice_residual, last_passage_check,
    path_coefficient, path_recursion_residuals, tilde_system_residuals,
    tilde_transform, w01_bijective, w02_annular,
)
from wht.spectral import compute_Z, solve_system, w01, w02


def make_model(m, T=4, p=(F(1, 3), F(2)), q=(F(2, 7), F(3))):
    u = [F(1, 2) + i for i in range(m)]
    return ModelParams.make(m, 0, u=u, p=list(p), q=list(q), T=T)


@pytest.fixture(scope="module")
def solved():
    out = {}
    for m in (1, 2, 3):
        params = make_model(m)
        sd = solve_system(params)
        out[m] = (params, sd, tilde_transform(sd, params))
    return out


def test_rejects_denominator_weights():
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1)], q=[F(1)], T=2)
    with pytest.raises(UnsupportedModel):
        tilde_transform(solve_system(params), params)


def test_transform_shapes_and_homogeneity(solved):
    for m, (params, sd, td) in solved.items():
        uprod = 1
        for ui in params.u:
            uprod = uprod * ui
        # single-factor case: rescaled fixed point is Z / u
        Z = compute_Z(sd)
        assert (td.Ztilde - Z.scale(1 / uprod)).is_zero()
        # order-zero: Atilde = 1/u_c, Btilde = 1 + internal-face weights
        for c in range(m):
            assert td.Atilde[c].get(0).coeffs[0] == 1 / params.u[c]
            assert td.Btilde[c].get(0) == TSeries.const(params.T, 1)


def test_tilde_system_residuals_vanish(solved):
    for m, (params, sd, td) in solved.items():
        resA, resB = tilde_system_residuals(td)
        assert all(r.is_zero() for r in resA.values())
        assert all(r.is_zero() for r in resB.values())


# --- path coefficients -----------------------------------------------------------

def test_path_empty_product(solved):
    _, _, td = solved[2]
    assert path_coefficient(td, 0, 0, 0) == TSeries.const(4, 1)


def test_path_single_step(solved):
    for m, (params, sd, td) in solved.items():
        for k in range(params.D2 + 1):
            assert path_coefficient(td, 0, 1, m * k - 1) == td.Atilde[0].get(k)


def test_path_two_steps_window(solved):
    params, sd, td = solved[1]
    # two white steps, net rise 0: sum over splits of the step coefficients
    lhs = path_coefficient(td, 0, 2, 0)
    rhs = TSeries.zero(params.T)
    for i in range(params.D2 + 1):
        for j in range(params.D2 + 1):
            if (i - 1) + (j - 1) == 0:
                rhs = rhs + td.Atilde[0].get(i) * td.Atilde[0].get(j)
    assert (lhs - rhs).is_zero()


def test_path_recursions_match_solver(solved):
    for m, (params, sd, td) in solved.items():
        rw, rb = path_recursion_residuals(td)
        assert all(r.is_zero() for r in rw.values()), m
        assert all(r.is_zero() for r in rb.values()), m


# --- disk --------------------------------------------------------------------------

def test_elementary_slice_identity(solved):
    for m, (params, sd, td) in solved.items():
        for c in range(m):
            assert elementary_slice_residual(td, c).is_zero()


def test_bijective_disk_matches_curve_every_color(solved):
    for m, (params, sd, td) in solved.items():
        ws = w01(sd)
        for c in range(m):
            assert (w01_bijective(td, color=c) - ws).is_zero(), (m, c)


def test_bijective_disk_matches_oracle():
    params = make_model(2, T=3)
    sd = solve_system(params)
    td = tilde_transform(sd, params)
    tab = build_table(params, 3, EllBounds())
    wo = wgn_oracle(tab, params, 0, 1).map_coeffs(
        lambda c: c.rename({"xb1": "xb"}))
    assert (w01_bijective(td) - wo).is_zero()


def test_bijective_disk_t0_vanishes(solved):
    _, _, td = solved[1]
    w = w01_bijective(td)
    c0 = w.coeffs[0]
    assert is_zero(c0)


# --- cylinder -----------------------------------------------------------------------

def test_annular_empty_at_order_zero(solved):
    _, _, td = solved[1]
    w = w02_annular(td)
    c0 = w.coeffs[0]
    assert is_zero(c0)


def test_annular_matches_curve_cylinder(solved):
    for m, (params, sd, td) in solved.items():
        assert (w02_annular(td) - w02(sd)).is_zero(), m


def test_annular_matches_oracle_window():
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 3)], q=[F(2, 7)], T=4)
    sd = solve_system(params)
    td = tilde_transform(sd, params)
    tab = build_table(params, 4, EllBounds())
    assert (w02_annular(td) - wgn_oracle(tab, params, 0, 2)).is_zero()


def test_last_passage_decomposition(solved):
    for m, (params, sd, td) in solved.items():
        residuals = last_passage_check(td, p_max=3, f_max=4)
        assert all(r.is_zero() for r in residuals), m
