import cmath
import math
from fractions import Fraction as F
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wht.model import EllBounds, ModelParams
from wht.oracle import (
    build_table, character_value, class_size, contents, enumerate_factorisations,
    enumeration_total, hook_lengths, hurwitz_character_table, monotone_runs,
    partitions, tau_from_table, tau_schur, wgn_oracle, z_lambda,
)
from wht.ring import MPoly, RingUsageError, TSeries, is_zero


def small_params(m, r, d, u_exp=None):
    u = [F(1 + i, 2 + i) for i in range(m)] + [F(-2 - i, 3 + i) for i in range(r)]
    return ModelParams.make(m, r, u=u, p=[F(1, 3), F(2)], q=[F(3, 5), F(1, 7)],
                            T=d, u_exp=u_exp)


# --- characters ---------------------------------------------------------------

def test_trivial_rep():
    for mu in partitions(5):
        assert character_value((5,), mu) == 1


def test_sign_rep_at_transposition():
    assert character_value((1, 1), (2,)) == -1


def test_dimension_hook_formula():
    assert character_value((2, 1), (1, 1, 1)) == 2
    for lam in partitions(6):
        dim = character_value(lam, (1,) * 6)
        hooks = hook_lengths(lam)
        prod = 1
        for h in hooks:
            prod *= h
        assert dim * prod == 720


def test_character_orthogonality():
    d = 5
    for lam in partitions(d):
        for lam2 in partitions(d):
            s = sum(class_size(mu) * character_value(lam, mu) * character_value(lam2, mu)
                    for mu in partitions(d))
            assert s == (120 if lam == lam2 else 0)


def test_character_size_mismatch():
    with pytest.raises(RingUsageError):
        character_value((2,), (1, 1, 1))


def test_character_of_a_non_partition_raises():
    for lam, mu in (((1, 2), (3,)), ((3,), (0, 3)), ((4, -1), (2, 1))):
        with pytest.raises(RingUsageError, match="partitions"):
            character_value(lam, mu)


# The character tables are built by ribbon removal on whole column blocks.
# The reference is the Murnaghan-Nakayama rule one (lam, mu) pair at a time,
# on the beta-set of lam.

@cache
def _reference_character(lam, mu):
    if not mu:
        return 1
    k, n = mu[0], len(lam)
    beta = {part + n - 1 - i for i, part in enumerate(lam)}
    total = 0
    for b in beta:
        if b < k or b - k in beta:
            continue
        height = sum(1 for x in beta if b - k < x < b)
        rest = sorted(beta - {b} | {b - k}, reverse=True)
        kappa = tuple(x - (n - 1 - i) for i, x in enumerate(rest)
                      if x > n - 1 - i)
        total += (-1) ** height * _reference_character(kappa, mu[1:])
    return total


def test_ribbon_tables_equal_the_beta_set_reference():
    from wht.oracle import _character_matrix
    for d in range(13):
        X = _character_matrix(d)
        assert [[type(x) for x in row] for row in X] == [[int] * len(X)] * len(X)
        assert X.tolist() == [[_reference_character(lam, mu) for mu in partitions(d)]
                              for lam in partitions(d)], d


def test_character_columns_orthogonal_at_d18():
    # sum_lam chi(mu) chi(nu) = z_mu delta(mu, nu); int64 is exact here, as
    # each partial sum is at most sqrt(z_mu z_nu) <= 18! < 2^63
    from wht.oracle import _ribbon_table
    X = _ribbon_table(18)
    z = [z_lambda(mu) for mu in partitions(18)]
    assert (X.T @ X == np.diag(z)).all()


def test_character_table_past_the_int64_bound_raises_first():
    from wht.oracle import _CHARACTER_MAX_D, _ribbon_table
    d = _CHARACTER_MAX_D
    assert d * math.factorial(d) < 2 ** 126 <= (d + 1) * math.factorial(d + 1)
    built = _ribbon_table.cache_info().currsize
    with pytest.raises(RingUsageError, match=f"up to d = {d}"):
        _ribbon_table(d + 1)
    assert _ribbon_table.cache_info().currsize == built


# --- monotone runs ------------------------------------------------------------

def test_runs_length_zero():
    assert list(monotone_runs(2, 0)) == [()]


def test_runs_only_transposition():
    assert list(monotone_runs(2, 2)) == [((0, 1), (0, 1))]


def test_runs_all_transpositions():
    assert sorted(monotone_runs(3, 1)) == [(((0, 1),)), (((0, 2),)), (((1, 2),))]


def test_run_counts_match_homogeneous_evaluation():
    # number of monotone runs of length l equals h_l at the contents 0..d-1
    def h(l, xs):
        if l == 0:
            return 1
        if not xs:
            return 0
        return h(l, xs[:-1]) + xs[-1] * h(l - 1, xs)

    for d in (2, 3, 4):
        for l in range(5):
            assert len(list(monotone_runs(d, l))) == h(l, list(range(d)))


# --- enumeration --------------------------------------------------------------

def test_d1_single_tuple():
    params = small_params(2, 1, 1)
    tab = enumerate_factorisations(1, params, EllBounds(run_max=3))
    assert tab.counts == {((1,), (1,), (0, 0, 0), None, True): 1}
    assert tab.genus(((1,), (1,), (0, 0, 0), None, True)) == 0


def test_d2_worked_examples():
    params = small_params(1, 0, 2)
    tab = enumerate_factorisations(2, params, EllBounds())
    assert tab.counts[((2,), (1, 1), (1,), None, True)] == 1
    assert tab.counts[((2,), (2,), (0,), None, True)] == 1
    assert sum(tab.counts.values()) == 4    # 2^2 free tuples


def test_empty_table_for_infeasible_bounds():
    params = small_params(1, 1, 2)
    tab = enumerate_factorisations(2, params, EllBounds(run_max=-1))
    assert tab.counts == {}


def test_pq_exchange_symmetry():
    params = small_params(2, 1, 3)
    tab = build_table(params, 3, EllBounds(run_max=3))
    for (lam, mu, ell, ee, conn), cnt in tab.counts.items():
        assert tab.counts[(mu, lam, ell, ee, conn)] == cnt


def test_genus_integrality_nonnegative():
    params = small_params(1, 1, 4)
    tab = build_table(params, 4, EllBounds(run_max=5))
    for key, _ in tab.entries(connected=True):
        assert tab.genus_numerator(key) % 2 == 0
        assert tab.genus(key) >= 0


def test_counts_exact_near_int64_and_overflow_raises():
    # (1,0) with the exponential weight at d = 3 counts 36 sum_l 3^l tuples;
    # at free-run length 38 the largest single count passes 2^62
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1)], q=[F(1)], T=3,
                              u_exp=F(1, 5))
    tab = enumerate_factorisations(3, params, EllBounds(exp_run_max=38))
    assert min(tab.counts.values()) > 0
    assert max(tab.counts.values()) > 2 ** 62
    assert sum(tab.counts.values()) == 36 * sum(3 ** ln for ln in range(39))
    with pytest.raises(RingUsageError, match="overflow"):
        enumerate_factorisations(3, params, EllBounds(exp_run_max=40))


def test_total_count_equals_free_tuples():
    # the first factor is forced by the product constraint, so the total is
    # d! per free permutation slot
    params = small_params(2, 0, 3)
    tab = enumerate_factorisations(3, params, EllBounds())
    assert sum(tab.counts.values()) == 6 ** 3


# --- enumeration vs character expansion ---------------------------------------

@pytest.mark.parametrize("m,r,d,cap", [
    (1, 0, 3, 0), (2, 0, 3, 0), (3, 0, 3, 0),
    (0, 1, 3, 4), (1, 1, 3, 4), (2, 1, 3, 4),
    (1, 0, 4, 0), (1, 1, 4, 4),
])
def test_counts_match_characters(m, r, d, cap):
    params = small_params(m, r, d)
    tab = enumerate_factorisations(d, params, EllBounds(run_max=cap))
    km = hurwitz_character_table(d, params, ell_cap=cap)
    enum = {}
    for (lam, mu, ell, ee, _), cnt in tab.entries():
        sign = (-1) ** sum(ell[m:])
        k = (lam, mu, ell, ee)
        enum[k] = enum.get(k, 0) + sign * cnt
    for k in set(enum) | set(km):
        if any(e > cap for e in k[2][m:]):
            continue
        assert enum.get(k, 0) == km.get(k, 0), k


def test_counts_match_characters_exponential():
    params = small_params(1, 1, 3, u_exp=F(1, 5))
    tab = enumerate_factorisations(3, params, EllBounds(run_max=3, exp_run_max=3))
    km = hurwitz_character_table(3, params, ell_cap=3, v_cap=3)
    enum = {}
    for (lam, mu, ell, ee, _), cnt in tab.entries():
        sign = (-1) ** sum(ell[1:])
        k = (lam, mu, ell, ee)
        enum[k] = enum.get(k, 0) + sign * cnt
    for k in set(enum) | set(km):
        if any(e > 3 for e in k[2][1:]) or (k[3] or 0) > 3:
            continue
        assert enum.get(k, 0) == km.get(k, 0), k


# --- tau ----------------------------------------------------------------------

def test_tau_low_order_coefficients():
    params = small_params(1, 0, 2)
    tau = tau_schur(params, 2)
    assert tau.coeffs[0] == 1
    assert tau.coeffs[1] == params.p[0] * params.q[0]
    # d=2 with polynomial weight 1+u z: s2 s2 (1+u) + s11 s11 (1-u)
    p1, p2 = params.p
    q1, q2 = params.q
    u = params.u[0]
    s2p, s11p = (p1 * p1 + p2) / 2, (p1 * p1 - p2) / 2
    s2q, s11q = (q1 * q1 + q2) / 2, (q1 * q1 - q2) / 2
    assert tau.coeffs[2] == s2p * s2q * (1 + u) + s11p * s11q * (1 - u)


def test_tau_schur_equals_assembly_symbolic_u():
    for m, r, cap in ((1, 0, 0), (2, 0, 0), (1, 1, 4), (0, 1, 4)):
        params = small_params(m, r, 3)
        tab = build_table(params, 3, EllBounds(run_max=cap))
        lhs = tau_schur(params, 3, u_symbolic=True, ell_cap=max(cap, 1))
        rhs = tau_from_table(tab, params, 3, connected=False, u_symbolic=True)
        assert (lhs - rhs).is_zero(), (m, r)


def test_connected_exp_log_consistency():
    params = small_params(1, 1, 3)
    tab = build_table(params, 3, EllBounds(run_max=4))
    tau_d = tau_from_table(tab, params, 3, connected=False, u_symbolic=True,
                           symbolic_pq=True)
    log_t = tau_from_table(tab, params, 3, connected=True, u_symbolic=True,
                           symbolic_pq=True)
    cap = 4

    def trunc(ts):
        return ts.map_coeffs(lambda c: MPoly(
            {mo: v for mo, v in c.terms.items() if dict(mo).get("u1", 0) <= cap})
            if isinstance(c, MPoly) else c)

    assert (trunc(log_t.exp()) - trunc(tau_d)).is_zero()


def test_exponential_weight_consistency_d2():
    # arbitrary runs weighted v^l / l!: enumeration matches the content factor
    # exp(v * content sum), compared exactly as polynomials in v
    params = small_params(1, 0, 2, u_exp=F(1, 5))
    tab = build_table(params, 2, EllBounds(run_max=0, exp_run_max=6))
    km = hurwitz_character_table(2, params, ell_cap=1, v_cap=6)
    enum = {}
    for (lam, mu, ell, ee, _), cnt in tab.entries():
        k = (lam, mu, ell, ee)
        enum[k] = enum.get(k, 0) + cnt
    for k, v in km.items():
        if (k[3] or 0) <= 6:
            assert enum.get(k, 0) == v, k


# tau_schur and hurwitz_character_table are matrix products on the
# character tables.  The references sum over shapes term by term, with the
# symbolic content weight of each shape as an MPoly product box by box and
# the Schur values as Fraction sums; values and scalar types must agree.

def _reference_content_weight(lam, params, u_symbolic, ell_cap, v_cap):
    cs = contents(lam)
    w = MPoly.const(1) if u_symbolic else 1
    for i in range(params.m):
        ui = MPoly.var(f"u{i}") if u_symbolic else params.u[i]
        for c in cs:
            w = w * (1 + c * ui)
    for j in range(params.m, params.M):
        for c in cs:
            if u_symbolic:
                term = MPoly.const(1)
                for k in range(1, ell_cap + 1):
                    term = term + MPoly.var(f"u{j}", k, (-c) ** k)
                w = MPoly({m: x for m, x in (w * term).terms.items()
                           if dict(m).get(f"u{j}", 0) <= ell_cap})
            else:
                w = w * (F(1, 1) / (1 + c * params.u[j]))
    if params.has_exp:
        csum = sum(cs)
        if u_symbolic:
            e = MPoly.const(1)
            for k in range(1, v_cap + 1):
                e = e + MPoly.var("v", k, F(csum ** k, math.factorial(k)))
            w = w * e
        else:
            w = w * cmath.exp(params.u_exp * csum)
    return w


def _reference_schur_value(lam, weights):
    total = 0
    for mu in partitions(sum(lam)):
        pm = 1
        for part in mu:
            pm = pm * (weights[part - 1] if part <= len(weights) else 0)
        chi = _reference_character(lam, mu)
        if pm and chi:
            total = total + F(chi, z_lambda(mu)) * pm
    return total


def _reference_tau_schur(params, d_max, u_symbolic=False, ell_cap=None,
                         v_cap=None):
    coeffs = [1] + [0] * d_max
    for d in range(1, d_max + 1):
        total = 0
        for lam in partitions(d):
            sp = _reference_schur_value(lam, params.p)
            sq = _reference_schur_value(lam, params.q)
            if sp and sq:
                total = total + sp * sq * _reference_content_weight(
                    lam, params, u_symbolic, ell_cap, v_cap)
        coeffs[d] = total
    return TSeries(d_max, coeffs)


def _reference_hurwitz_character_table(d, params, ell_cap, v_cap=None):
    out = {}
    for lam in partitions(d):
        for mu in partitions(d):
            acc = MPoly()
            for shape in partitions(d):
                cl = _reference_character(shape, lam)
                cm = _reference_character(shape, mu)
                if cl and cm:
                    acc = acc + cl * cm * _reference_content_weight(
                        shape, params, True, ell_cap, v_cap)
            pref = F(class_size(lam) * class_size(mu), math.factorial(d))
            for mono, c in acc.terms.items():
                powers = dict(mono)
                ell = tuple(powers.get(f"u{i}", 0) for i in range(params.M))
                ell_exp = powers.get("v", 0) if params.has_exp else None
                val = pref * c * math.factorial(ell_exp or 0)
                assert val.denominator == 1
                out[(lam, mu, ell, ell_exp)] = int(val)
    return out


def _typed(c):
    """A coefficient as comparable data, scalar types included; MPoly terms
    in monomial order."""
    if isinstance(c, MPoly):
        return sorted((m, type(x), x) for m, x in c.terms.items())
    return type(c), c


def _assert_same_tau(params, d_max, **symbolic):
    got = tau_schur(params, d_max, **symbolic)
    ref = _reference_tau_schur(params, d_max, **symbolic)
    assert [_typed(c) for c in got.coeffs] == [_typed(c) for c in ref.coeffs]


def _demo01_params():
    return ModelParams.make(m=1, r=1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                            q=[F(2, 7)], T=3)


def test_tau_schur_equals_the_reference_on_concordance_models():
    from wht.verify import (
        CONCORDANCE_MODELS, _concordance_params, _model_depth, _run_cap)
    for (m, r) in CONCORDANCE_MODELS:
        d = _model_depth(m, r)
        params = _concordance_params(m, r, d)
        _assert_same_tau(params, d, u_symbolic=True,
                         ell_cap=max(_run_cap(r, d), 1))
        _assert_same_tau(params, d)


def test_tau_schur_equals_the_reference_on_small_models():
    for m, r, cap in ((1, 0, 0), (2, 0, 0), (1, 1, 4), (0, 1, 4)):
        _assert_same_tau(small_params(m, r, 3), 3, u_symbolic=True,
                         ell_cap=max(cap, 1))
    _assert_same_tau(small_params(1, 0, 2), 2)
    _assert_same_tau(small_params(2, 2, 4), 4)
    _assert_same_tau(_demo01_params(), 3)
    _assert_same_tau(_demo01_params(), 3, u_symbolic=True, ell_cap=4)


@pytest.mark.parametrize("m,r", [(1, 0), (1, 1), (0, 1), (2, 1)])
def test_tau_schur_equals_the_reference_exponential(m, r):
    # the numeric values are complex, and must agree to the last bit
    for u_exp in (F(1, 5), F(-2, 5)):
        params = small_params(m, r, 4, u_exp=u_exp)
        _assert_same_tau(params, 4, u_symbolic=True, ell_cap=3, v_cap=5)
        _assert_same_tau(params, 4)


@pytest.mark.parametrize("m,r,d,cap,u_exp,v_cap", [
    (1, 0, 3, 0, None, None), (2, 0, 3, 0, None, None),
    (3, 0, 3, 0, None, None), (0, 1, 3, 4, None, None),
    (1, 1, 3, 4, None, None), (2, 1, 3, 4, None, None),
    (1, 0, 4, 0, None, None), (1, 1, 4, 4, None, None),
    (1, 1, 3, 3, F(1, 5), 3), (1, 0, 2, 1, F(1, 5), 6),
])
def test_hurwitz_character_table_equals_the_reference(m, r, d, cap, u_exp,
                                                      v_cap):
    params = small_params(m, r, d, u_exp=u_exp)
    got = hurwitz_character_table(d, params, ell_cap=cap, v_cap=v_cap)
    ref = _reference_hurwitz_character_table(d, params, cap, v_cap)
    assert got == ref
    assert {type(v) for v in got.values()} == {int}
    # keys run over (lam, mu) in partition order, as in the reference
    assert [k[:2] for k in got] == [k[:2] for k in ref]


def test_hurwitz_character_table_equals_the_reference_demo01():
    got = hurwitz_character_table(2, _demo01_params(), ell_cap=4)
    assert got == _reference_hurwitz_character_table(2, _demo01_params(), 4)


# --- correlators ---------------------------------------------------------------

def test_w01_order_zero_empty():
    params = small_params(1, 0, 2)
    tab = build_table(params, 2, EllBounds())
    w = wgn_oracle(tab, params, 0, 1)
    assert is_zero(w.coeffs[0])


def test_w01_degree_one():
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 3)], q=[F(2, 7)], T=1)
    tab = build_table(params, 1, EllBounds())
    w = wgn_oracle(tab, params, 0, 1)
    assert w.coeffs[1] == MPoly.var("xb1", 2, F(2, 7))


def test_w02_symmetric():
    params = small_params(1, 1, 3)
    tab = build_table(params, 3, EllBounds(run_max=4))
    w = wgn_oracle(tab, params, 0, 2)
    for c in w.coeffs:
        assert c == c.rename({"xb1": "t_", "xb2": "xb1"}).rename({"t_": "xb2"})


def test_wgn_coverage_guard():
    params = small_params(1, 0, 2)
    tab = build_table(params, 2, EllBounds())
    with pytest.raises(RingUsageError):
        wgn_oracle(tab, params, 0, 1, d_max=5)


# wgn_oracle term by term: one Fraction weight per key of the table, walked
# in full, and the markings of each lambda as MPoly products.  The integer
# assembly must give the same series, term order and scalar types included.

def _reference_wgn_oracle(table, params, g, n, d_max=None):
    dcov = sorted(table.coverage)
    if d_max is None:
        d_max = dcov[-1]
    weights = {}
    for key, count in table.entries(connected=True):
        lam, mu, ell, ell_exp, _ = key
        d = sum(lam)
        if d > d_max or table.genus_numerator(key) != 2 * g:
            continue
        w = F((-1) ** sum(ell[params.m:]) * count, math.factorial(d))
        for part in mu:
            w = w * (params.q[part - 1] if part <= params.D2 else 0)
        for c, e in enumerate(ell):
            if e:
                w = w * params.u[c] ** e
        if ell_exp:
            w = w * (params.u_exp ** ell_exp * F(1, math.factorial(ell_exp)))
        if w:
            weights[lam] = weights.get(lam, 0) + w
    coeffs = [MPoly() for _ in range(d_max + 1)]
    for lam, w in weights.items():
        if w:
            d = sum(lam)
            coeffs[d] = coeffs[d] + MPoly.const(w) * _reference_markings(lam, n, params)
    return coeffs


def _reference_markings(lam, n, params):
    """Sum over ordered removals of n parts: product of i_j xb_j^(i_j+1),
    with the untouched parts converted to internal-face weights."""
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1

    def rec(j, mult):
        if j > n:
            acc = MPoly.const(1)
            for part, e in mult.items():
                if e == 0:
                    continue
                if part > params.D1:
                    return MPoly()
                acc = acc * (params.p[part - 1] ** e)
            return acc
        total = MPoly()
        for part in sorted(mult):
            if mult[part] == 0:
                continue
            m2 = dict(mult)
            m2[part] -= 1
            sub = rec(j + 1, m2)
            if sub.is_zero():
                continue
            total = total + MPoly.var(f"xb{j}", part + 1, mult[part] * part) * sub
        return total

    return rec(1, mult)


def _assert_oracle_is_term_by_term(table, params, g, n, d_max=None):
    got = wgn_oracle(table, params, g, n, d_max=d_max)
    ref = _reference_wgn_oracle(table, params, g, n, d_max=d_max)
    assert list(got.coeffs) == ref, (g, n, d_max)
    assert repr(got) == repr(TSeries(len(ref) - 1, ref)), (g, n, d_max)
    for a, b in zip(got.coeffs, ref):
        assert [(m, type(c), c) for m, c in a.terms.items()] == \
            [(m, type(c), c) for m, c in b.terms.items()], (g, n, d_max)


@pytest.mark.parametrize("m,r,u_exp", [
    (1, 0, None), (1, 1, None), (2, 1, None), (0, 1, None), (1, 0, F(1, 5)),
])
def test_oracle_equals_term_by_term(m, r, u_exp):
    # the shapes of test_character_route_matches_enumeration, with runs long
    # enough for genus 2, and one exponential model
    d = 4 if r == 0 and u_exp is None else 3
    params = small_params(m, r, d, u_exp=u_exp)
    bounds = (EllBounds(run_max=0, exp_run_max=8) if u_exp is not None
              else EllBounds(run_max=0 if r == 0 else 2 * d + 2))
    tab = build_table(params, d, bounds)
    for g in (0, 1, 2):
        for n in (1, 2, 3):
            _assert_oracle_is_term_by_term(tab, params, g, n)
    _assert_oracle_is_term_by_term(tab, params, 0, 2, d_max=d - 1)


def test_genus_index_follows_the_counts():
    # an add to a key already present keeps len(counts), and must still
    # reach the next call
    params = small_params(1, 1, 2)
    tab = build_table(params, 2, EllBounds(run_max=2))
    before = wgn_oracle(tab, params, 0, 1)
    key, count = next((k, c) for k, c in tab.entries(connected=True)
                      if tab.genus(k) == 0 and k[0] == (2,))
    size = len(tab.counts)
    tab.add(key, count)
    assert len(tab.counts) == size
    after = wgn_oracle(tab, params, 0, 1)
    assert after != before
    assert list(after.coeffs) == _reference_wgn_oracle(tab, params, 0, 1)


# --- genus-graded character route (second oracle) --------------------------------

@pytest.mark.parametrize("m,r,g,n", [
    (1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 0, 1),
    (1, 0, 0, 2), (1, 1, 0, 2),
    (1, 0, 1, 1), (0, 1, 1, 2),
])
def test_character_route_matches_enumeration(m, r, g, n):
    from wht.oracle import wgn_via_characters
    d = 4 if r == 0 else 3
    params = small_params(m, r, d)
    cap = 0 if r == 0 else 2 * d - 2 + 2 * g
    tab = build_table(params, d, EllBounds(run_max=cap))
    a = wgn_oracle(tab, params, g, n)
    b = wgn_via_characters(params, d, g, n)
    assert (a - b).is_zero(), (m, r, g, n)


def test_character_route_exponential():
    from wht.oracle import wgn_via_characters
    params = small_params(1, 0, 3, u_exp=F(1, 5))
    tab = build_table(params, 3, EllBounds(run_max=0, exp_run_max=8))
    a = wgn_oracle(tab, params, 0, 1)
    b = wgn_via_characters(params, 3, 0, 1)
    assert (a - b).is_zero()


def test_character_route_exact_past_the_order():
    # genus 4 and 5 at t^3 need content weights of degree far above T; the
    # route must not clip them (runs up to 14 cover every key of size 3)
    from wht.oracle import wgn_via_characters
    params = small_params(0, 1, 3)
    tab = build_table(params, 3, EllBounds(run_max=14))
    for g in (4, 5):
        for n in (1, 2):
            a = wgn_oracle(tab, params, g, n)
            assert not a.is_zero()
            assert (a - wgn_via_characters(params, 3, g, n)).is_zero(), (g, n)


# The graded route term by term, as Laurent dicts in N on the window
# [2g-2-2T, 2g-2+2T]: one content product, one Schur value per derivative
# stack and one Fraction product per term.  The matrix route must give the
# same series, term order and scalar types included.

def _nl_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _nl_mul(a, b, lo, hi):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if lo <= e <= hi:
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out


def _graded_content_weight(lam, params, lo, hi):
    w = {0: F(1)}
    for c in contents(lam):
        for i in range(params.m):
            w = _nl_mul(w, {0: F(1), 1: params.u[i] * c}, lo, hi)
        series = [-c * params.u[j] for j in range(params.m, params.M)]
        if params.has_exp:
            series.append(None)
        for x in series:
            box, term = {0: F(1)}, F(1)
            for ell in range(1, hi + 1):
                term = term * (x if x is not None else c * params.u_exp / ell)
                if term == 0:
                    break
                box[ell] = term
            w = _nl_mul(w, box, lo, hi)
    return w


def _graded_schur(lam, weights, derivs):
    out = {}
    for mu in partitions(sum(lam)):
        work = {part: mu.count(part) for part in mu}
        val = F(_reference_character(lam, mu), z_lambda(mu))
        for i in derivs:
            val = val * work.get(i, 0)
            work[i] = work.get(i, 0) - 1
        for part, k in work.items():
            if k > 0:
                val = val * (weights[part - 1] if part <= len(weights) else 0) ** k
        if val:
            out = _nl_add(out, {-len(mu): val})
    return out


def _reference_wgn(params, T, g, n):
    lo, hi, target = 2 * g - 2 - 2 * T, 2 * g - 2 + 2 * T, 2 * g - 2
    degrees = range(1, T + 1)
    stacks = [()] + [(i,) for i in degrees]
    if n == 2:
        stacks += [(i, j) for i in degrees for j in degrees]
    fam = {dv: [{} for _ in range(T + 1)] for dv in stacks}
    fam[()][0] = {0: F(1)}
    for d in degrees:
        for lam in partitions(d):
            base = _nl_mul(_graded_content_weight(lam, params, lo, hi),
                           _graded_schur(lam, params.q, ()), lo, hi)
            for dv in stacks:
                fam[dv][d] = _nl_add(fam[dv][d], _nl_mul(
                    base, _graded_schur(lam, params.p, dv), lo, hi))

    inv = [{0: F(1)}] + [{} for _ in range(T)]
    for k in degrees:
        for j in range(1, k + 1):
            inv[k] = _nl_add(inv[k], {e: -c for e, c in _nl_mul(
                fam[()][j], inv[k - j], lo, hi).items()})

    def times_inverse(x):
        return [reduce(_nl_add, (_nl_mul(x[j], inv[k - j], lo, hi)
                                 for j in range(k + 1)), {})
                for k in range(T + 1)]

    ratio = {i: times_inverse(fam[(i,)]) for i in degrees}
    coeffs = [MPoly() for _ in range(T + 1)]
    for dv in stacks[1:]:
        if len(dv) != n:
            continue
        series = times_inverse(fam[dv]) if n == 2 else ratio[dv[0]]
        mark = MPoly.var("xb1", dv[0] + 1, dv[0])
        if n == 2:
            mark = mark * MPoly.var("xb2", dv[1] + 1, dv[1])
        for k in range(T + 1):
            acc = series[k]
            if n == 2:
                for a in range(k + 1):
                    acc = _nl_add(acc, {e: -c for e, c in _nl_mul(
                        ratio[dv[0]][a], ratio[dv[1]][k - a], lo, hi).items()})
            if acc.get(target, 0):
                coeffs[k] = coeffs[k] + mark * acc[target]
    return coeffs


def _assert_same_series(params, T, g, n):
    from wht.oracle import wgn_via_characters
    got = list(wgn_via_characters(params, T, g, n).coeffs)
    ref = _reference_wgn(params, T, g, n)
    assert got == ref, (T, g, n)
    for a, b in zip(got, ref):
        assert [(m, type(c), c) for m, c in a.terms.items()] == \
            [(m, type(c), c) for m, c in b.terms.items()], (T, g, n)


def _route_models():
    from wht.verify import CONCORDANCE_MODELS, _concordance_params
    models = {f"{m}{r}": _concordance_params(m, r, 5) for (m, r) in CONCORDANCE_MODELS}
    models["exp"] = small_params(1, 1, 4, u_exp=F(-2, 5))
    return models


@pytest.mark.parametrize("name", list(_route_models()))
def test_character_route_equals_term_by_term(name):
    params = _route_models()[name]
    for T in ((2, 4) if params.has_exp else (2, 5)):
        for g in (0, 1, 2):
            for n in (1, 2):
                _assert_same_series(params, T, g, n)


_small = st.fractions(-3, 3, max_denominator=5)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(sum).flatmap(
    lambda mr: st.tuples(
        st.just(mr),
        st.lists(_small.filter(bool), min_size=sum(mr), max_size=sum(mr)),
        st.lists(_small, min_size=1, max_size=3),
        st.lists(_small, min_size=1, max_size=3),
        st.none() | _small.filter(bool))),
    st.integers(1, 3), st.integers(0, 2), st.integers(1, 2))
def test_character_route_equals_term_by_term_drawn(model, T, g, n):
    (m, r), u, p, q, u_exp = model
    params = ModelParams.make(m, r, u=u, p=p, q=q, T=T, u_exp=u_exp)
    _assert_same_series(params, T, g, n)


# sha256 prefixes of repr(list(c.terms.items())) per coefficient, t^0..t^10,
# of the README model: pins terms, their order and the scalar types
FROZEN_D10 = {
    (0, 1): ("4f53cda18c2baa0c", "8667a73aa9ad8819", "0cd47dbc53881ce7",
             "5bc1b71d5d4f9e1d", "bc31bf064ae984fe", "9dc65a5ed3cc0e85",
             "4ae66e0a58cc338c", "174380804d48e5cb", "a2b33853d4d67824",
             "49f5c3dd6caae21b", "b1a7999784ff5255"),
    (0, 2): ("4f53cda18c2baa0c", "4f53cda18c2baa0c", "0ff7e2c0dd89baef",
             "f377c5f6164d2b35", "95f5dcab776a6e7b", "de7805749e5bbd1d",
             "58a838dbd22ba6cd", "970cde2c76f85ec0", "c56796139b390392",
             "da7f98ea7559eed8", "a9963f6d9528bdd5"),
    (1, 1): ("4f53cda18c2baa0c", "4f53cda18c2baa0c", "4f53cda18c2baa0c",
             "4f53cda18c2baa0c", "16c4b3e76d2c9586", "c5dd98de9c4714a0",
             "9149a70d3b26f121", "3b81e0c0147db27e", "3f114c2c28ff6ae3",
             "9356a7cb9f483cca", "a44ba41eb7f4c54b"),
    (1, 2): ("4f53cda18c2baa0c", "4f53cda18c2baa0c", "4f53cda18c2baa0c",
             "4f53cda18c2baa0c", "4f53cda18c2baa0c", "4f53cda18c2baa0c",
             "024fcd717de7383c", "425ebc29b4f72bf6", "38f63af8f0709280",
             "87bf38c452b19f1f", "caae79779eb09635"),
    (2, 1): ("4f53cda18c2baa0c", "4f53cda18c2baa0c", "4f53cda18c2baa0c",
             "4f53cda18c2baa0c", "4f53cda18c2baa0c", "4f53cda18c2baa0c",
             "4f53cda18c2baa0c", "4f53cda18c2baa0c", "8423a98e81c4327f",
             "e766b9af18bbe957", "902b318553195da7"),
}


@pytest.mark.parametrize("gn", list(FROZEN_D10))
def test_character_route_frozen_at_d10(gn):
    import hashlib
    from wht.oracle import wgn_via_characters
    readme = ModelParams.make(m=1, r=0, u=[F(1, 2)], p=[F(1, 6), F(1, 10)],
                              q=[F(1, 5), F(1, 8)], T=10)
    got = tuple(hashlib.sha256(repr(list(c.terms.items())).encode()).hexdigest()[:16]
                for c in wgn_via_characters(readme, 10, *gn).coeffs)
    assert got == FROZEN_D10[gn]


# --- explicit tuples ------------------------------------------------------------

def test_fact_tuple_validation():
    from wht.oracle import FactTuple
    # product of the three permutations is the identity
    FactTuple((1, 0), (1, 0), [(0, 1)], [])
    with pytest.raises(RingUsageError):
        FactTuple((1, 0), (0, 1), [(0, 1)], [])          # product not identity
    with pytest.raises(RingUsageError):
        FactTuple((0, 1), (0, 1), [(0, 1, 2)[:2]], [((1, 0),)])  # j >= i


def test_explicit_tuples_match_compressed_enumeration():
    # every concordance shape at d <= 3, plus exponential models with and
    # without runs: brute-force tuples against the dynamic program
    from wht.oracle import iter_fact_tuples
    from wht.verify import CONCORDANCE_MODELS
    cases = [(m, r, d, 2 if r else 0, None, None)
             for (m, r) in CONCORDANCE_MODELS for d in (1, 2, 3)]
    cases += [(1, 1, 2, 4, None, None), (0, 1, 3, 3, None, None),
              (1, 0, 2, 0, F(1), 3), (1, 1, 3, 2, F(1), 2),
              (0, 1, 3, 2, F(1), 2)]
    for (m, r, d, cap, exp, ecap) in cases:
        u = [F(1, 2) + i for i in range(m)] + [F(-1, 3)] * r
        params = ModelParams.make(m, r, u=u, p=[F(1)], q=[F(1)], T=d,
                                  u_exp=exp)
        bounds = EllBounds(run_max=cap, exp_run_max=ecap)
        ref = {}
        for ft in iter_fact_tuples(d, params, bounds):
            k = ft.key()
            ref[k] = ref.get(k, 0) + 1
        tab = enumerate_factorisations(d, params, bounds)
        assert dict(tab.counts) == ref, (m, r, d, exp)
        assert sum(ref.values()) == enumeration_total(d, params, bounds)


# --- symmetric group tables ---------------------------------------------------

def _union_find(d, pairs):
    """Restricted growth string of the partition of range(d) that the pairs
    generate."""
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    roots = {}
    return tuple(roots.setdefault(find(x), len(roots)) for x in range(d))


def _same_block(p):
    return [(x, y) for x in range(len(p)) for y in range(x) if p[x] == p[y]]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_group_tables_obey_group_and_lattice_laws(d):
    import random
    from wht.oracle import SymmetricGroupTables, cycle_type
    tb = SymmetricGroupTables(d)
    n, ident = tb.n, tb.id_idx
    assert tb.perms == sorted(tb.perms) and len(tb.perms) == n
    everyone = np.arange(n)
    assert (tb.mul[ident] == everyone).all() and (tb.mul[:, ident] == everyone).all()
    assert (tb.mul[everyone, tb.inv] == ident).all()
    assert (tb.mul[tb.inv, everyone] == ident).all()
    rng = random.Random(d)
    for _ in range(300):
        a, b, c = (rng.randrange(n) for _ in range(3))
        assert tb.mul[tb.mul[a, b], c] == tb.mul[a, tb.mul[b, c]]
        pa, pb = tb.perms[a], tb.perms[b]
        assert tb.perms[tb.mul[a, b]] == tuple(pa[pb[k]] for k in range(d))
    parts = tb.partitions_rgs
    for i, p in enumerate(tb.perms):
        assert tb.types[tb.type_idx[i]] == cycle_type(p)
        assert tb.ncycles[i] == len(cycle_type(p))
        assert parts[tb.cpart[i]] == _union_find(d, enumerate(p))
    assert (tb.join == tb.join.T).all()
    assert (np.diag(tb.join) == np.arange(tb.nparts)).all()
    assert (tb.join[:, tb.discrete_idx] == np.arange(tb.nparts)).all()
    assert (tb.join[:, tb.full_idx] == tb.full_idx).all()
    for a, pa in enumerate(parts):
        for b, pb in enumerate(parts):
            assert parts[tb.join[a, b]] == _union_find(
                d, _same_block(pa) + _same_block(pb))
    for t, pidx, j, i in tb.transpositions:
        assert tb.perms[t] == tuple({j: i, i: j}.get(k, k) for k in range(d))
        assert parts[pidx] == _union_find(d, [(j, i)])


# --- export -------------------------------------------------------------------

def test_json_records_roundtrip():
    params = small_params(1, 1, 2)
    tab = build_table(params, 2, EllBounds(run_max=2))
    recs = tab.to_records()
    assert all(set(r) == {"lambda", "mu", "ell", "ell_exp", "connected",
                          "genus", "count"} for r in recs)
    assert all(isinstance(r["count"], str) for r in recs)
    # deterministic ordering
    assert recs == tab.to_records()
