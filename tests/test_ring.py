from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from wht.ring import (
    MPoly, TSeries, ZLaurent, RingDomainError, RingUsageError,
    divided_difference, mpoly_div_linear, series_compose,
)


def ts(*coeffs):
    return TSeries(len(coeffs) - 1, list(coeffs))


xb = MPoly.var("xb")


# --- TSeries multiplication --------------------------------------------------

def test_mul_difference_of_squares():
    assert ts(1, 1, 0) * ts(1, -1, 0) == ts(1, 0, -1)


def test_mul_with_marking_variable_truncates():
    a = TSeries(1, [xb, MPoly.const(1)])
    b = TSeries(1, [xb, MPoly.const(-1)])
    out = a * b
    assert out.coeffs[0] == xb * xb
    assert out.coeffs[1] == MPoly()


def test_mul_alternating_convolution():
    # direct convolution of sum(t^k) and sum((-t)^k) at T=4: 1 + t^2 + t^4
    a = ts(1, 1, 1, 1, 1)
    b = ts(1, -1, 1, -1, 1)
    assert a * b == ts(1, 0, 1, 0, 1)


def test_mul_rejects_mixed_orders():
    with pytest.raises(RingUsageError):
        ts(1, 0) * ts(1, 0, 0)


# --- TSeries inversion -------------------------------------------------------

def test_invert_geometric():
    assert ts(1, -1, 0, 0).invert() == ts(1, 1, 1, 1)


def test_invert_constant():
    assert ts(2, 0, 0).invert() == ts(F(1, 2), 0, 0)


def test_invert_with_parameter_value():
    out = ts(1, 3, 0).invert()
    assert out == ts(1, -3, 9)
    assert ts(1, 3, 0) * out == ts(1, 0, 0)


def test_invert_requires_unit():
    with pytest.raises(RingDomainError):
        ts(0, 1).invert()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=5, max_size=5),
       st.sampled_from([1, -1, 2, 3, -5]))
def test_invert_roundtrip(tail, head):
    a = TSeries(4, [F(head)] + [F(c) for c in tail[1:]])
    assert a * a.invert() == TSeries.const(4, 1)


# --- ring axioms (exact mode) ------------------------------------------------

small = st.lists(st.integers(-4, 4), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(small, small, small)
def test_ring_axioms(ca, cb, cc):
    a, b, c = (TSeries(3, [F(x) for x in cs]) for cs in (ca, cb, cc))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


# --- series_compose ----------------------------------------------------------

def test_compose_polynomial_at_t():
    w = MPoly.var("w")
    f = TSeries(2, [MPoly.const(1) + w + w * w, MPoly(), MPoly()])
    g = TSeries(2, [0, 1, 0])
    assert series_compose(f, "w", g) == ts(1, 1, 1)


def test_compose_identity():
    w = MPoly.var("w")
    f = TSeries(1, [w, MPoly()])
    g = TSeries(1, [xb, xb * xb])
    assert series_compose(f, "w", g) == g


def test_compose_square():
    w = MPoly.var("w")
    f = TSeries(1, [w * w, MPoly()])
    g = TSeries(1, [xb, xb * xb])
    out = series_compose(f, "w", g)
    # (xb + t*xb^2)^2 truncated at t: xb^2 + 2 t xb^3
    assert out.coeffs[0] == xb * xb
    assert out.coeffs[1] == 2 * MPoly.var("xb", 3)


def test_compose_rejects_constant_target():
    w = MPoly.var("w")
    f = TSeries(1, [w, MPoly()])
    with pytest.raises(RingDomainError):
        series_compose(f, "w", ts(1, 0))


# --- laurent projections -----------------------------------------------------

def zl(order, d):
    return ZLaurent(order, {e: TSeries.const(order, c) for e, c in d.items()})


def test_project_simple():
    f = zl(0, {-1: 1, 0: 2, 1: 3})
    assert f.project("lt") == zl(0, {-1: 1})


def test_project_nonnegative_part_of_inverse_series():
    # brace-style nonnegative part drops the z^-2 term
    f = zl(0, {-2: 1, 0: 5, 1: 1})
    assert f.project("ge") == zl(0, {0: 5, 1: 1})


def test_project_binomial_negative_part():
    # z^-3 (1+z)^4, negative part: z^-3 + 4 z^-2 + 6 z^-1
    one_plus_z = zl(0, {0: 1, 1: 1})
    f = one_plus_z.power(4).zshift(-3)
    assert f.project("lt") == zl(0, {-3: 1, -2: 4, -1: 6})


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=6))
def test_project_modes_partition(d):
    f = zl(1, {e: c for e, c in d.items() if c})
    assert f.project("lt") + f.project("ge") == f
    assert f.project("le") + f.project("gt") == f


def test_zlaurent_invert_on_window():
    # (1 + p z^-1)^-1 on [-3, 0] is the alternating geometric series
    f = zl(2, {0: 1, -1: F(1, 2)})
    inv = f.invert(-3, 0)
    assert f.mul(inv, -3, 0).clip(-2, 0) == zl(2, {0: 1}).clip(-2, 0)
    assert inv.get(-2) == TSeries.const(2, F(1, 4))


def test_zlaurent_exp_window():
    theta = zl(3, {-1: 2})
    e = theta.exp(-3, 0)
    assert e.get(0) == TSeries.const(3, 1)
    assert e.get(-2) == TSeries.const(3, 2)
    assert e.get(-3) == TSeries.const(3, F(4, 3))


# --- divided difference ------------------------------------------------------

def mk_z(coeff_polys):
    return TSeries(len(coeff_polys) - 1, coeff_polys)


def test_divided_difference_trivial():
    Z = mk_z([xb, MPoly()])
    assert divided_difference(Z) == TSeries(1, [MPoly.const(1), MPoly()])


def test_divided_difference_square():
    Z = mk_z([xb, MPoly.var("xb", 2)])
    out = divided_difference(Z)
    assert out.coeffs[1] == MPoly.var("xb1") + MPoly.var("xb2")


def test_divided_difference_cube():
    Z = mk_z([xb, MPoly.var("xb", 3)])
    out = divided_difference(Z)
    expect = (MPoly.var("xb1", 2) + MPoly.var("xb1") * MPoly.var("xb2")
              + MPoly.var("xb2", 2))
    assert out.coeffs[1] == expect


def test_divided_difference_reconstructs():
    Z = mk_z([xb, 3 * MPoly.var("xb", 2) + MPoly.var("xb", 4), MPoly.var("xb", 3)])
    R = divided_difference(Z)
    z1 = Z.map_coeffs(lambda c: c.rename({"xb": "xb1"}))
    z2 = Z.map_coeffs(lambda c: c.rename({"xb": "xb2"}))
    lin = MPoly.var("xb1") - MPoly.var("xb2")
    assert R.map_coeffs(lambda c: c * lin) == z1 - z2


def test_divided_difference_requires_shape():
    with pytest.raises(RingDomainError):
        divided_difference(mk_z([MPoly.const(1), MPoly()]))


def test_mpoly_div_linear_exact():
    p = (MPoly.var("xb1") - MPoly.var("xb2")) ** 2 * (MPoly.var("xb1") + 5)
    q = mpoly_div_linear(p, "xb1", "xb2")
    assert q * (MPoly.var("xb1") - MPoly.var("xb2")) == p
    with pytest.raises(RingDomainError):
        mpoly_div_linear(MPoly.var("xb1") + 1, "xb1", "xb2")


# --- misc MPoly behaviour ----------------------------------------------------

def test_mpoly_laurent_exponents():
    p = MPoly.var("xb", -2, F(3))
    assert p.eval({"xb": F(1, 2)}) == 12
    assert (p * MPoly.var("xb", 2)) == MPoly.const(3)


def test_mpoly_diff_and_rename():
    p = MPoly.var("xb", 3, 2) + MPoly.var("al") * MPoly.var("xb")
    assert p.diff("xb") == MPoly.var("xb", 2, 6) + MPoly.var("al")
    assert p.rename({"xb": "y"}).degree("y") == 3


def test_tseries_exp():
    e = TSeries(3, [0, 1, 0, 0]).exp()
    assert e == ts(1, 1, F(1, 2), F(1, 6))
