"""The coded form of TSeries and ZLaurent against the decoded route.

The reference is the route the containers took before they kept the slice
kernel's form between operations: every TSeries product, inverse and
exponential coded both operands within the call (`RefTerms`) and decoded its
result to int, Fraction and MPoly; every sum, scaling and shift ran on those
coefficients; every ZLaurent kernel call re-coded its blocks from Fractions
(`ref_stream`) and decoded the result (`ref_value`).  Both routes must give
the same values, the same scalar types, the same MPoly term order and the
same z-exponent order.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings, strategies as st

from wht.ring import (
    MPoly, TSeries, ZLaurent, ZStream, _Slice, _common, _products, _rational,
    is_zero,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "wht"


# --- the decoded route -------------------------------------------------------

class RefTerms(dict):
    """Coefficients as slices within one call, over the names of the call."""

    def __init__(self, cs):
        super().__init__()
        self.names = sorted({n for c in cs if type(c) is MPoly
                             for m in c.terms for n, _ in m})
        self.weight = {n: 1 << (64 * k) for k, n in enumerate(self.names)}

    def slices(self, cs):
        polys = [type(c) is MPoly for c in cs]
        terms = [c.terms if p else ({(): c} if c else {}) for c, p in zip(cs, polys)]
        nums, D, frac = _common([v for t in terms for v in t.values()])
        codes = {m: sum(e * self.weight[n] for n, e in m) for t in terms for m in t}
        self.update(zip(codes.values(), codes))
        it = iter(nums)
        return [_Slice([(codes[m], next(it)) for m in t], 1) for t in terms], D, frac, polys

    def block(self, cs):
        xs, D, _, polys = self.slices(cs)
        return ZStream(len(cs) - 1, slices=[_Slice(x.row, D) for x in xs]), polys

    def __missing__(self, code):
        key, mono = code, []
        for name in self.names:
            e = code & ((1 << 64) - 1)
            if e >= 1 << 63:
                e -= 1 << 64
            code = (code - e) >> 64
            if e:
                mono.append((name, e))
        self[key] = m = tuple(mono)
        return m

    def coeff(self, sl, frac, poly):
        D = sl.den
        if poly:
            return MPoly({self[p]: F(n, D) if frac else n for p, n in sl.row})
        return _rational(sum(n for _, n in sl.row), D, frac)


def ref_mul(a, b):
    T = len(a) - 1
    K = RefTerms(a + b)
    xa, Da, fa, pa = K.slices(a)
    xb, Db, fb, pb = K.slices(b)
    out = []
    for k in range(T + 1):
        ij = [(i, k - i) for i in range(k + 1) if xa[i].row and xb[k - i].row]
        out.append(K.coeff(_products([(xa[i], xb[j], 1) for i, j in ij], None, None, Da * Db),
                           fa or fb, any(pa[i] or pb[j] for i, j in ij)) if ij else 0)
    return out


def ref_invert(a):
    T = len(a) - 1
    K = RefTerms(a)
    blk, ps = K.block(a)
    inv = blk.invert(None, None)
    inv.slice(T)
    xs, ys, polys = blk.slices, inv.slices, [ps[0]]
    for k in range(1, T + 1):
        polys.append(ps[0] or any(ps[j] or polys[k - j] for j in range(1, k + 1)
                                  if xs[j].row and ys[k - j].row))
    return [K.coeff(y, True, p) if y.row else 0 for y, p in zip(ys, polys)]


def ref_exp(f):
    T = len(f) - 1
    K = RefTerms(f)
    blk, ps = K.block(f)
    E = blk.exp(None, None)
    E.slice(T)
    reach, polys = [True], [False]
    for k in range(1, T + 1):
        js = [j for j in range(1, k + 1) if blk.slices[j].row and reach[k - j]]
        reach.append(bool(js))
        polys.append(any(ps[j] or polys[k - j] for j in js))
    return [1] + [K.coeff(e, True, p) for e, p in zip(E.slices[1:T + 1], polys[1:])]


def ref_scale(a, c):
    if is_zero(c):
        return [0] * len(a)
    return [c * x if not is_zero(x) else 0 for x in a]


def ref_tshift(a, s):
    return [0] * min(s, len(a)) + a[:max(len(a) - s, 0)]


def ref_stream(T, block):
    """{e: coefficient list} as a ZStream of known slices, each over the
    common denominator of its Fractions."""
    cols = [[] for _ in range(T + 1)]
    for e, cs in block.items():
        for k, c in enumerate(cs):
            if c:
                cols[k].append((e, c))
    slices = []
    for col in cols:
        nums, D, _ = _common([c for _, c in col])
        slices.append(_Slice([(e, n) for (e, _), n in zip(col, nums)], D))
    val = next((k for k, sl in enumerate(slices) if sl.row), T + 1)
    return ZStream(T, val=val, slices=slices)


def ref_value(blk):
    T = blk.order
    blk.slice(T)
    cols = {}
    for k, sl in enumerate(blk.slices[:T + 1]):
        for e, n in sl.row:
            cols.setdefault(e, [0] * (T + 1))[k] = F(n, sl.den) if sl.den > 1 else n
    return cols


# --- comparison --------------------------------------------------------------

def typed(c):
    """A coefficient with its type, and for an MPoly its terms in order."""
    if type(c) is MPoly:
        return "MPoly", [(m, type(v), v) for m, v in c.terms.items()]
    return type(c), c


def same(out, ref):
    assert [typed(c) for c in out] == [typed(c) for c in ref]


def listing(zl):
    return [(e, [typed(c) for c in ts.coeffs]) for e, ts in zl.coeffs.items()]


def ref_listing(block):
    return [(e, [typed(c) for c in cs]) for e, cs in block.items()]


# --- inputs ------------------------------------------------------------------

scalar = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4])))


def poly(names):
    exps = st.sampled_from([-2, -1, 1, 2])
    mono = st.lists(st.tuples(st.sampled_from(names), exps), max_size=len(names),
                    unique_by=lambda ne: ne[0]).map(lambda ms: tuple(sorted(ms)))
    return st.dictionaries(mono, scalar.filter(bool), max_size=3).map(MPoly)


def coefficient(names):
    return st.one_of(scalar, poly(names))


names = st.sampled_from([["x"], ["x", "y"], ["x", "y", "z"]])


@st.composite
def series_pair(draw):
    T, ns = draw(st.integers(0, 3)), draw(names)
    a, b = (draw(st.lists(coefficient(ns), min_size=T + 1, max_size=T + 1))
            for _ in range(2))
    return a, b


OPS = ("mul", "add", "sub", "scale", "tshift", "invert", "exp", "neg")


def apply(op, x, y, c, s, coded):
    """One operation on coded series (coded) or on coefficient lists; None
    when its operand is outside its domain."""
    if op == "mul":
        return x * y if coded else ref_mul(x, y)
    if op == "add":
        return x + y if coded else [p + q for p, q in zip(x, y)]
    if op == "sub":
        return x - y if coded else [p + q for p, q in zip(x, [-v for v in y])]
    if op == "neg":
        return -x if coded else [-v for v in x]
    if op == "scale":
        return x.scale(c) if coded else ref_scale(x, c)
    if op == "tshift":
        return x.tshift(s) if coded else ref_tshift(x, s)
    head = x.coeffs[0] if coded else x[0]
    if op == "invert":
        unit = (is_zero(head) is False and (type(head) is not MPoly
                                            or head.constant_or_none() not in (None, 0)))
        if not unit:
            return None
        return x.invert() if coded else ref_invert(x)
    f = x.tshift(1) if coded else ref_tshift(x, 1)
    return f.exp() if coded else ref_exp(f)


# --- coded operations against the decoded route ------------------------------

@settings(max_examples=70, deadline=None, derandomize=True)
@given(series_pair(), st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 9),
                                         st.integers(0, 9)), min_size=1, max_size=4),
       scalar.filter(bool), st.integers(0, 2))
def test_coded_series_operations_equal_the_decoded_route(ab, steps, c, s):
    a, b = ab
    T = len(a) - 1
    coded, ref = [TSeries(T, a), TSeries(T, b)], [a, b]
    for op, i, j in steps:
        i, j = i % len(ref), j % len(ref)
        r = apply(op, ref[i], ref[j], c, s, False)
        out = apply(op, coded[i], coded[j], c, s, True)
        assert (out is None) == (r is None)
        if r is None:
            continue
        same(out.coeffs, r)
        coded.append(out)
        ref.append(list(r))


def test_coded_sums_keep_the_types_of_term_by_term_sums():
    x, y = MPoly.var("x"), MPoly.var("y")
    a = TSeries(2, [1, F(1, 2), x + y * F(1, 2)])
    b = TSeries(2, [F(-1), F(-1, 2), MPoly({(("y", 1),): F(-1, 2)}) + 3])
    out = (a * TSeries.const(2, 1) + b).coeffs     # a coded operand
    same(out, [F(0), F(0), MPoly({(("x", 1),): F(1), (): 3})])
    s = a + TSeries(2, [0, 0, MPoly({(("y", 1),): 1})])
    assert typed(s.coeffs[2]) == ("MPoly", [((("x", 1),), int, 1), ((("y", 1),), F, F(3, 2))])
    # as in MPoly.__mul__, scaling a coefficient that mixes int and Fraction
    # terms makes every term a Fraction, by an int factor too
    for c in (3, F(1, 3)):
        same(s.scale(c).coeffs, ref_scale(list(s.coeffs), c))


@st.composite
def laurent_pair(draw):
    """Two blocks whose t^0 slices are 1 + (negative exponents), their other
    slices on [-2, 2]."""
    T = draw(st.integers(0, 3))

    def block():
        out = {}
        for e in draw(st.lists(st.integers(-2, 2), max_size=4, unique=True)):
            cs = draw(st.lists(scalar, min_size=T + 1, max_size=T + 1))
            cs[0] = cs[0] if e < 0 else 0
            out[e] = cs
        head = out.setdefault(0, [0] * (T + 1))
        head[0] = draw(scalar.filter(bool))
        return {e: cs for e, cs in out.items() if any(cs)}
    return T, block(), block()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(laurent_pair(), st.integers(-4, 0), st.integers(0, 3))
def test_coded_laurent_operations_equal_the_decoded_route(case, lo, hi):
    T, a, b = case
    za, zb = (ZLaurent(T, {e: TSeries(T, cs) for e, cs in blk.items()}) for blk in (a, b))
    ref = ref_value(ref_stream(T, a).mul(ref_stream(T, b), lo, hi))
    out = za.mul(zb, lo, hi)
    assert listing(out) == ref_listing(ref)
    inv = out.invert(lo, hi)        # a coded operand: its slices are read as they are
    assert listing(inv) == ref_listing(ref_value(ref_stream(T, ref).invert(lo, hi)))
    assert listing(inv.mul(za, lo, hi)) == ref_listing(
        ref_value(ref_stream(T, ref_value(ref_stream(T, ref).invert(lo, hi))).mul(
            ref_stream(T, a), lo, hi)))
    neg = {e: cs for e, cs in a.items() if e < 0}
    zneg = za.clip(None, -1)
    assert listing(zneg.exp(lo - 2, hi)) == ref_listing(
        ref_value(ref_stream(T, neg).exp(lo - 2, hi)))


# --- a cache rebuilt from decoded coefficients ---------------------------------

def series_results(x, y):
    yield x * y
    yield y * x
    yield x + y
    yield y - x
    yield x.scale(F(-2, 3))
    yield x.tshift(1)
    yield x.tshift(1).exp()
    if x.is_unit():
        yield x.invert()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(series_pair())
def test_rebuilt_series_equal_their_coded_form(ab):
    a, b = (TSeries(len(cs) - 1, cs) for cs in ab)
    x = a * b + a       # coded, its coefficients decoded below
    rebuilt = TSeries(x.order, x.coeffs)
    for y in (a, b, x):
        for p, q in zip(series_results(x, y), series_results(rebuilt, y)):
            same(p.coeffs, q.coeffs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(laurent_pair(), st.integers(-4, 0), st.integers(0, 3))
def test_rebuilt_blocks_equal_their_coded_form(case, lo, hi):
    T, a, b = case
    za, zb = (ZLaurent(T, {e: TSeries(T, cs) for e, cs in blk.items()}) for blk in (a, b))
    z = za.mul(zb, lo, hi)      # keeps its slices
    rebuilt = ZLaurent(T, dict(z.coeffs))

    def results(w):
        yield w.mul(za, lo, hi)
        yield za.mul(w)
        yield w.power(2, lo, hi)
        yield w.invert(lo, hi)
        yield w.clip(None, -1).exp(lo - 2, hi)
        yield w.clip(lo, 0)
        yield w.zshift(2)
        yield w.tshift(1)
        yield w.project("lt")
        yield w.scale(F(3, 2))
        yield w + za
        yield w - za
    for p, q in zip(results(z), results(rebuilt)):
        assert listing(p) == listing(q)
    g = TSeries(T, [MPoly.var("x")] + [1] * T)
    same(z.clip(0, None).eval_series(g).coeffs, rebuilt.clip(0, None).eval_series(g).coeffs)
    assert z == rebuilt


MUTATORS = {"pop", "popitem", "update", "setdefault", "clear", "append", "extend",
            "insert", "remove", "sort", "reverse", "__setitem__", "__delitem__"}


def container_of(node):
    """The attribute a subscript, a mutating call or its target reads from
    (`x.coeffs[...]`, `x.coeffs.pop(...)`), if any."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) else None


def test_no_engine_code_mutates_decoded_coefficients():
    # coefficients are decoded once and cached: a write into `coeffs`, or into
    # the terms of a decoded MPoly, would leave the coded form stale
    watched = {"coeffs", "_coeffs", "terms"}
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript) and container_of(t.value) in watched:
                    hits.append((path.name, node.lineno))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and container_of(node.func.value) in watched):
                hits.append((path.name, node.lineno))
    assert hits == []


def test_decoded_coefficients_outlive_the_pipeline():
    from wht import ModelParams, compute_Z, solve_system, w01, w02
    from wht.slices import tilde_transform, w01_bijective, w02_annular
    params = ModelParams.make(2, 0, u=[F(1, 2), F(2, 3)], p=[F(1, 6)], q=[F(1, 5)], T=5)
    sd = solve_system(params)
    outs = [compute_Z(sd), w01(sd), w02(sd)]
    seen = [[typed(c) for c in s.coeffs] for s in outs]
    td = tilde_transform(sd, params)
    assert w01_bijective(td) == outs[1] and w02_annular(td) == outs[2]
    for s, before in zip(outs, seen):
        assert [typed(c) for c in s.coeffs] == before
        assert [typed(c) for c in TSeries._coded(s.order, s.code()).coeffs] == before
    for blk in (*sd.A.values(), *sd.B.values()):
        assert listing(ZLaurent(blk.order, dict(blk.coeffs))) == listing(blk)


def ref_marked(powers, fs, shift, name, T):
    terms = [{} for _ in range(T + 1)]
    for f in fs:
        for k, c in enumerate(powers[f].get(f + shift).coeffs):
            if c:
                terms[k][((name, f + 1),)] = c
    return [MPoly(t) if t else 0 for t in terms]


def test_marked_series_equal_the_decoded_route():
    # the annular cylinder codes its marked series straight from the coded
    # coefficients of the block powers; an empty coefficient is MPoly() where
    # the decoded route had the int 0, which no product can tell apart.  In
    # this model some coefficients mix int and Fraction terms.
    from wht import ModelParams, solve_system
    from wht.slices import _a_product_powers, _marked, tilde_transform
    params = ModelParams.make(2, 0, u=[1, 1], p=[1], q=[F(1, 2)], T=5)
    td = tilde_transform(solve_system(params), params)
    powers = _a_product_powers(td, 5, 10)
    for p in range(1, 6):
        for fs, shift, name in ((range(p, 6), -p, "xb1"), (range(6), p, "xb2")):
            out, ref = _marked(powers, fs, shift, name, 5).coeffs, ref_marked(
                powers, fs, shift, name, 5)
            same([c for c in out if c.terms], [c for c in ref if c != 0])
            assert [bool(c.terms) for c in out] == [c != 0 for c in ref]
