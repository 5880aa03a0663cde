from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wht.ring import (
    MPoly, TSeries, ZLaurent, ZStream, RingDomainError, RingUsageError,
    interpolate, is_zero, scalar_invert, _common, _mono_mul,
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


# --- integer kernels: one common denominator per operand -----------------------
# References are the term-by-term products the kernels replace.

def naive_series_mul(a, b):
    T = a.order
    out = [F(0)] * (T + 1)
    for i in range(T + 1):
        for j in range(T + 1 - i):
            out[i + j] += F(a.coeffs[i]) * F(b.coeffs[j])
    return out


def naive_mpoly_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            e = dict(m1)
            for name, k in m2:
                e[name] = e.get(name, 0) + k
            m = tuple(sorted((n, k) for n, k in e.items() if k))
            out[m] = out.get(m, 0) + F(c1) * F(c2)
    return {m: c for m, c in out.items() if c}


ints = st.integers(-10 ** 6, 10 ** 6)
rationals = st.one_of(
    ints, st.just(0),
    st.builds(F, ints, st.integers(1, 10 ** 9)),
    st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 7, 10 ** 9])))


@st.composite
def rational_series(draw, order):
    return TSeries(order, draw(st.lists(rationals, min_size=order + 1,
                                        max_size=order + 1)))


def check_series_product(a, b):
    out = a * b
    assert list(out.coeffs) == naive_series_mul(a, b)
    for c in out.coeffs:
        assert type(c) in (int, F)
        if c == 0:
            assert type(c) is int
    if all(type(c) is int for c in a.coeffs + b.coeffs):
        assert all(type(c) is int for c in out.coeffs)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda T: st.tuples(rational_series(T), rational_series(T))))
def test_series_product_equals_fraction_convolution(ab):
    check_series_product(*ab)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(lambda T: st.tuples(
    *(st.lists(ints, min_size=T + 1, max_size=T + 1) for _ in range(2)))))
def test_series_product_of_integer_series_stays_integer(ab):
    a, b = (TSeries(len(cs) - 1, cs) for cs in ab)
    check_series_product(a, b)


def test_series_product_cancels_to_integer_zero():
    a = ts(F(1, 3), F(2, 5), 0)
    b = ts(F(6, 5), F(-36, 25), F(10 ** 9 + 7, 10 ** 9))
    out = a * b
    assert out.coeffs[1] == 0 and type(out.coeffs[1]) is int
    assert out.coeffs[0] == F(2, 5)
    check_series_product(a, b)


def test_common_denominator():
    nums, D, frac = _common([F(1, 6), 2, F(-3, 4), 0])
    assert (list(nums), D, frac) == ([2, 24, -9, 0], 12, True)
    assert _common((3, -1)) == ((3, -1), 1, False)
    assert _common([F(1, 2), MPoly.var("x")]) is None
    assert _common([1, 1j]) is None


monomials = st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                               st.integers(-3, 3).filter(bool)),
                     max_size=3, unique_by=lambda ne: ne[0]).map(
    lambda ms: tuple(sorted(ms)))
mpolys = st.dictionaries(monomials, rationals.filter(bool), max_size=5).map(MPoly)


@settings(max_examples=80, deadline=None)
@given(mpolys, mpolys)
def test_mpoly_product_equals_term_by_term(p, q):
    out = p * q
    assert out.terms == naive_mpoly_mul(p, q)
    assert all(c != 0 and type(c) in (int, F) for c in out.terms.values())


def test_mpoly_product_drops_a_cancelled_term():
    x, y = MPoly.var("x"), MPoly.var("y", -1, F(1, 3))
    out = (x + y) * (x - y)
    assert set(out.terms) == {(("x", 2),), (("y", -2),)}
    assert out == MPoly.var("x", 2) - MPoly.var("y", -2, F(1, 9))


def test_mpoly_series_coefficient_cancels():
    x = MPoly.var("x", 1, F(1, 2))
    a = TSeries(1, [x, x])
    b = TSeries(1, [x, -x])
    assert (a * b).coeffs[1].is_zero()


@settings(max_examples=80, deadline=None)
@given(monomials, monomials)
def test_mono_mul_early_returns_equal_general_route(m1, m2):
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    assert _mono_mul(m1, m2) == tuple(sorted((n, e) for n, e in d.items() if e))


def test_mono_mul_same_variable_powers():
    assert _mono_mul((("xb", 2),), (("xb", 3),)) == (("xb", 5),)
    assert _mono_mul((("xb", 2),), (("xb", -2),)) == ()
    assert _mono_mul((), (("v", 1),)) == (("v", 1),)


def test_mpoly_product_rejects_a_complex_term():
    with pytest.raises(RingUsageError, match="complex"):
        MPoly.var("x") * MPoly.const(1j)
    with pytest.raises(RingUsageError, match="complex"):
        MPoly({(("x", 1),): 0.5j}) * MPoly.var("y")


# --- integer kernels on MPoly coefficients and Laurent blocks ----------------
# References are the term-by-term loops the kernels replace: scalars multiply
# as Fractions, MPoly pairs through MPoly.__mul__ (checked against
# naive_mpoly_mul above) and sums through MPoly.__add__.

def ref_series_mul(a, b):
    T = a.order
    out = [0] * (T + 1)
    for i, x in enumerate(a.coeffs):
        if is_zero(x):
            continue
        for j in range(T + 1 - i):
            y = b.coeffs[j]
            if not is_zero(y):
                out[i + j] = out[i + j] + x * y
    return out


def ref_invert(a):
    T = a.order
    b0 = scalar_invert(a.coeffs[0])
    out = [b0] + [0] * T
    for k in range(1, T + 1):
        s = 0
        for j in range(1, k + 1):
            if not (is_zero(a.coeffs[j]) or is_zero(out[k - j])):
                s = s + a.coeffs[j] * out[k - j]
        out[k] = -b0 * s if not is_zero(s) else 0
    return out


def ref_zl_mul(a, b, lo, hi):
    out = {}
    for e1, x in a.coeffs.items():
        for e2, y in b.coeffs.items():
            e = e1 + e2
            if (lo is not None and e < lo) or (hi is not None and e > hi):
                continue
            p = TSeries(a.order, ref_series_mul(x, y))
            out[e] = p if e not in out else out[e] + p
    return {e: p.coeffs for e, p in out.items() if not p.is_zero()}


def check_coeffs(out, ref):
    """Equal values, an MPoly exactly where the reference has one, int or
    Fraction terms, and an int for a scalar zero."""
    assert len(out) == len(ref)
    for c, r in zip(out, ref):
        assert isinstance(c, MPoly) == isinstance(r, MPoly), (c, r)
        if isinstance(c, MPoly):
            assert c.terms == r.terms
            assert all(v != 0 and type(v) in (int, F) for v in c.terms.values())
        else:
            assert c == r and type(c) in (int, F)
            assert c != 0 or type(c) is int


def scalars(cs):
    for c in cs:
        yield from (c.terms.values() if isinstance(c, MPoly) else [c])


nonzero = rationals.map(lambda c: c or 1)


def poly_coeffs(names):
    exps = st.sampled_from([-2, -1, 1, 2, 3])
    monos = st.lists(st.tuples(st.sampled_from(names), exps),
                     max_size=len(names), unique_by=lambda ne: ne[0]).map(
        lambda ms: tuple(sorted(ms)))
    polys = st.dictionaries(monos, nonzero, max_size=3).map(MPoly)
    return st.one_of(rationals, polys)


@st.composite
def poly_series(draw, T, names, head=None):
    """A series whose coefficients mix scalars and MPoly in `names`, zeros
    and empty MPoly included; `head` draws its t^0 coefficient."""
    cs = draw(st.lists(poly_coeffs(names), min_size=T + 1, max_size=T + 1))
    if head is not None:
        cs[0] = draw(head)
    return TSeries(T, cs)


# the order and one or two variables
shapes = st.tuples(st.integers(0, 5), st.sampled_from([["x"], ["x", "y"]]))


units = st.one_of(nonzero, nonzero.map(MPoly.const))


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(poly_series(*s), poly_series(*s))))
def test_poly_series_product_equals_term_by_term(ab):
    a, b = ab
    out = (a * b).coeffs
    check_coeffs(out, ref_series_mul(a, b))
    if all(type(v) is int for v in scalars(a.coeffs + b.coeffs)):
        assert all(type(v) is int for v in scalars(out))


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: poly_series(*s, head=units)))
def test_poly_series_invert_equals_term_by_term(a):
    out = a.invert().coeffs
    check_coeffs(out, ref_invert(a))
    assert all(type(v) is F for v in scalars(out) if v != 0)


def ref_exp(f):
    """exp f as the sum of f^m / m!, term by term.  A coefficient of f^m
    enters when a product f_j1 ... f_jm of nonzero coefficients reaches it,
    even if such products cancel."""
    T = f.order
    out = [1] + [None] * T
    power = {0: 1}              # the coefficients of f^(m-1) that entered
    for m in range(1, T + 1):
        nxt = {}
        for i, x in power.items():
            for j in range(1, T + 1 - i):
                y = f.coeffs[j]
                if not is_zero(y):
                    nxt[i + j] = nxt[i + j] + x * y if i + j in nxt else x * y
        power = nxt
        for k, c in power.items():
            c = c * F(1, factorial(m))
            out[k] = c if out[k] is None else out[k] + c
    return [0 if c is None else c for c in out]


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    poly_series(*s, head=st.sampled_from([0, MPoly()])),
    poly_series(*s, head=poly_coeffs(s[1]).filter(lambda c: not is_zero(c))))))
def test_poly_series_exp_equals_power_sum(fg):
    f, g = fg
    out = f.exp().coeffs
    check_coeffs(out, ref_exp(f))
    assert out[0] == 1 and type(out[0]) is int
    assert all(type(v) is F for v in scalars(out[1:]) if v != 0)
    with pytest.raises(RingDomainError, match="zero constant term"):
        g.exp()


def test_poly_series_kernels_cancel_like_a_term_by_term_sum():
    x = MPoly.var("x")
    # a product coefficient that an MPoly entered stays MPoly() when it cancels
    out = (TSeries(1, [x, x]) * TSeries(1, [1, -1])).coeffs
    assert isinstance(out[1], MPoly) and out[1].is_zero()
    # ... while one that no pair reached stays the int 0
    out = (TSeries(1, [x, 0]) * TSeries(1, [x, 0])).coeffs
    assert out[1] == 0 and type(out[1]) is int
    # an inverse coefficient that cancels is the int 0
    inv = TSeries(2, [1, x, x * x]).invert().coeffs
    assert inv[1] == -x and inv[2] == 0 and type(inv[2]) is int


@st.composite
def blocks(draw, T, coeff):
    series = st.lists(coeff, min_size=T + 1, max_size=T + 1).map(lambda cs: TSeries(T, cs))
    return ZLaurent(T, draw(st.dictionaries(st.integers(-3, 3), series, max_size=4)))


# the order and the coefficient kind
block_shapes = st.tuples(st.integers(0, 4), st.sampled_from([rationals, ints]))
clips = st.one_of(st.none(), st.integers(-5, 5))


@settings(max_examples=80, deadline=None)
@given(block_shapes.flatmap(lambda s: st.tuples(blocks(*s), blocks(*s))), clips, clips)
def test_zlaurent_product_equals_pair_by_pair(ab, lo, hi):
    a, b = ab
    out = a.mul(b, lo, hi)
    ref = ref_zl_mul(a, b, lo, hi)
    assert set(out.coeffs) == set(ref)
    for e, ts in out.coeffs.items():
        check_coeffs(ts.coeffs, ref[e])
    if all(type(v) is int for zl in (a, b) for ts in zl.coeffs.values()
           for v in ts.coeffs):
        assert all(type(v) is int for ts in out.coeffs.values() for v in ts.coeffs)


def test_laurent_blocks_reject_mpoly_coefficients():
    x = MPoly.var("x")
    poly = ZLaurent(1, {0: TSeries(1, [1, x])})
    with pytest.raises(RingUsageError, match="int or Fraction"):
        poly.mul(ZLaurent.const(1, 1))
    with pytest.raises(RingUsageError, match="int or Fraction"):
        ZLaurent.const(1, 1).mul(poly, 0, 1)
    blk = ZStream.unknown(1)
    with pytest.raises(RingUsageError, match="not MPoly"):
        blk.const(1, x)
    with pytest.raises(RingUsageError, match="not MPoly"):
        blk.const(1, 1).scale(MPoly.const(2))


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


# --- blocks computed order by order ------------------------------------------
# ZLaurent's products, powers, inverses and exponentials run on the ZStream
# slice kernels.  Reference: term-by-term Fraction loops over {(e, k): c}
# dicts, every product clipped to the z-window.

def stream(zl):
    """zl as a ZStream built from constants: sum of c z^e t^k."""
    factory = ZStream.unknown(zl.order)
    out = factory.const(zl.order, 0)
    for e, ts in zl.coeffs.items():
        for k, c in enumerate(ts.coeffs):
            if not is_zero(c):
                out = out + factory.const(zl.order, c).zshift(e).tshift(k)
    return out


def block_terms(zl):
    """A block as {(z-exponent, t-order): nonzero coefficient}."""
    return {(e, k): c for e, ts in zl.coeffs.items() for k, c in enumerate(ts.coeffs) if c}


def ref_block_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def ref_block_mul(a, b, T, lo, hi):
    out = {}
    for (e1, k1), x in a.items():
        for (e2, k2), y in b.items():
            e, k = e1 + e2, k1 + k2
            if k <= T and lo <= e <= hi:
                out[e, k] = out.get((e, k), 0) + F(x) * y
    return {key: c for key, c in out.items() if c}


def ref_block_series(step, T, lo, hi, factor):
    """sum_m factor(m) step^m on [lo, hi]; each factor of step lowers the
    z-exponent or raises the t-order, so the sum ends within T + hi - lo + 2
    terms."""
    out = term = {(0, 0): F(1)}
    for m in range(1, T + hi - lo + 3):
        term = ref_block_mul(term, step, T, lo, hi)
        if not term:
            return out
        out = ref_block_add(out, {key: c * factor(m) for key, c in term.items()})
    raise AssertionError("the reference series did not end")


def ref_block_invert(a, T, lo, hi):
    """a_00^-1 sum_m (1 - a / a_00)^m, the geometric series on the window."""
    c0 = F(a[0, 0])
    step = {key: -c / c0 for key, c in a.items() if key != (0, 0)}
    return {key: c / c0 for key, c in ref_block_series(step, T, lo, hi, lambda m: 1).items()}


def ref_block_exp(a, T, lo, hi):
    """sum_m a^m / m!, the Taylor series on the window (a_00 = 0)."""
    return ref_block_series(a, T, lo, hi, lambda m: F(1, factorial(m)))


@st.composite
def one_signed(draw, T, sign, coeff):
    """c + terms of one sign of z-exponent, c a nonzero rational; positive
    exponents start at t^1, as the windowed inverse needs."""
    out = {0: TSeries(T, [draw(nonzero_rationals)]
                      + draw(st.lists(coeff, min_size=T, max_size=T)))}
    for e in (1, 2):
        cs = draw(st.lists(coeff, min_size=T + 1, max_size=T + 1))
        out[sign * e] = TSeries(T, [0] + cs[1:] if sign > 0 else cs)
    return ZLaurent(T, out)


nonzero_rationals = rationals.filter(lambda c: c != 0)
stream_cases = st.tuples(st.integers(0, 4), st.sampled_from([-1, 1]),
                         st.sampled_from([rationals, ints]))


@settings(max_examples=60, deadline=None)
@given(stream_cases.flatmap(lambda c: st.tuples(
    st.just(c[1]), one_signed(*c), one_signed(*c))))
def test_block_operations_equal_term_by_term(case):
    sign, f, g = case
    T = f.order
    lo, hi = (-3, 0) if sign < 0 else (0, 3)
    a, b = block_terms(f), block_terms(g)
    # exp needs a zero z^0 t^0 coefficient
    h = f - ZLaurent.const(T, f.get(0).coeffs[0])
    sf, sg, sh = stream(f), stream(g), stream(h)
    assert block_terms(sf.value()) == a
    cube = ref_block_mul(ref_block_mul(a, a, T, lo, hi), a, T, lo, hi)
    # each operation on a stream, and through its ZLaurent entry point
    for blks, ref in [
            ((sf.mul(sg, lo, hi).value(), f.mul(g, lo, hi)), ref_block_mul(a, b, T, lo, hi)),
            ((sf.power(3, lo, hi).value(), f.power(3, lo, hi)), cube),
            ((sf.invert(lo, hi).value(), f.invert(lo, hi)), ref_block_invert(a, T, lo, hi)),
            ((sh.exp(lo, hi).value(), h.exp(lo, hi)), ref_block_exp(block_terms(h), T, lo, hi))]:
        for blk in blks:
            assert block_terms(blk) == ref
            assert all(type(c) in (int, F) for ts in blk.coeffs.values() for c in ts.coeffs)
    assert (sf + sg.scale(F(2, 3))).tshift(1).value() == (f + g.scale(F(2, 3))).tshift(1)


def test_stream_product_reads_operands_from_their_valuation():
    # x = 1 + t x: slice k of the right-hand side reads x only below k
    T = 3
    x = ZStream.unknown(T)
    one = x.const(T, 1)
    rhs = one + one.tshift(1).mul(x)
    for k in range(T + 1):
        x.feed(rhs.slice(k))
    assert x.value() == ZLaurent(T, {0: TSeries(T, [1, 1, 1, 1])})
    with pytest.raises(RingUsageError, match="not known yet"):
        x.mul(one).slice(T + 1)


def test_stream_inverse_and_exp_need_windows_with_z0():
    x = ZStream.unknown(2)
    with pytest.raises(RingUsageError, match="must contain z"):
        x.invert(-2, -1)
    with pytest.raises(RingUsageError, match="must contain z"):
        x.exp(1, 3)
    # slice 0 with a positive exponent has no inverse on a window
    f = x.const(2, 1) + x.const(2, 1).zshift(1)
    with pytest.raises(RingDomainError, match="unit z\\^0"):
        f.invert(0, 3).slice(0)


def test_stream_inverse_and_exp_on_an_unbounded_window():
    # the window of TSeries.invert and exp: slice 0 must be a scalar for the
    # inverse and zero for the exponential, else the sums would not end
    T = 2
    one = ZStream.unknown(T).const(T, 1)
    g = one.zshift(-1).tshift(1)            # z^-1 t
    assert (one + g).invert(None, None).value() == ZLaurent(T, {
        0: ts(1, 0, 0), -1: ts(0, -1, 0), -2: ts(0, 0, 1)})
    assert g.exp(None, None).value() == ZLaurent(T, {
        0: ts(1, 0, 0), -1: ts(0, 1, 0), -2: ts(0, 0, F(1, 2))})
    f = one + one.zshift(-1)
    with pytest.raises(RingDomainError, match="scalar slice 0"):
        f.invert(None, None).slice(0)
    with pytest.raises(RingDomainError, match="did not terminate"):
        f.exp(None, None).slice(0)


def test_tshift_past_the_order_is_zero():
    assert ts(1, 2).tshift(3) == ts(0, 0)
    assert ZLaurent.const(1, 5).tshift(3).is_zero()


# --- interpolation in a parameter --------------------------------------------

def lopsided(c, T=3):
    """(1 + c xb t)^2 / (1 - c t) through t^T: degree k in c at t^k."""
    num = TSeries(T, [1, c * xb] + [0] * (T - 1))
    return num * num * TSeries(T, [1, -c] + [0] * (T - 1)).invert()


def test_interpolate_reproduces_polynomial_coefficients():
    a = MPoly.var("a")
    nodes = [F(k, 2) for k in range(-2, 3)]     # degree 3 and one check node
    out, low = interpolate(lambda c: (lopsided(c), lopsided(c, 2)), "a", nodes)
    assert out == lopsided(a) and low == lopsided(a, 2)
    assert all(isinstance(c, MPoly) for c in out.coeffs)
    assert out.coeffs[3].coefficient_of("a", 3) == 1 + 2 * xb + xb * xb


def test_interpolate_raises_when_one_node_short():
    with pytest.raises(RingDomainError, match="misses the node"):
        interpolate(lambda c: (lopsided(c),), "a", range(4))


# --- misc MPoly behaviour ----------------------------------------------------

def test_mpoly_laurent_exponents():
    p = MPoly.var("xb", -2, F(3))
    assert p.eval({"xb": F(1, 2)}) == 12
    assert (p * MPoly.var("xb", 2)) == MPoly.const(3)


def test_mpoly_diff_and_rename():
    p = MPoly.var("xb", 3, 2) + MPoly.var("al") * MPoly.var("xb")
    assert p.diff("xb") == MPoly.var("xb", 2, 6) + MPoly.var("al")
    assert p.rename({"xb": "y"}) == (MPoly.var("y", 3, 2)
                                     + MPoly.var("al") * MPoly.var("y"))


def test_tseries_exp():
    e = TSeries(3, [0, 1, 0, 0]).exp()
    assert e == ts(1, 1, F(1, 2), F(1, 6))

