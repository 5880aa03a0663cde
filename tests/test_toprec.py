import math
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest

from wht.dense import (
    horner, poly_shift, s_compose, s_inv, s_mul, s_revert, s_sqrt, wseries,
)
from wht.model import EllBounds, ModelParams
from wht.oracle import build_table, wgn_oracle
from wht.ring import RingUsageError
from wht.spectral import initial_ramification, solve_system
from wht.toprec import (
    alpha0_curve, compare_oracle, instantiate_curve, local_data, tr_compute,
    _coo, _group_rows, _kernel_value, _orderings, _pole_powers, _uniforms,
)
from wht.verify import tr_sample_points


GENERIC_10 = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 6), F(1, 10)],
                              q=[F(1, 5), F(1, 8)], T=6)


@pytest.fixture(scope="module")
def curve10():
    return instantiate_curve(solve_system(GENERIC_10), 1e-3)


@pytest.fixture(scope="module")
def omega10(curve10):
    return tr_compute(curve10, 1, 3)


# --- series helpers --------------------------------------------------------------

def test_series_reversion_roundtrip():
    L = 14
    f = np.zeros(L, dtype=complex)
    f[1], f[2], f[3] = 2.0, 0.5, -1.0 + 0.3j
    g = s_revert(f)
    assert np.max(np.abs(s_compose(f, g) - wseries(L))) < 1e-12


def test_series_reversion_of_w_exp_minus_w_is_the_lambert_series():
    # the inverse of w e^(-w) is sum_k k^(k-1)/k! w^k
    L = 24
    f = np.array([0.0] + [(-1) ** (k - 1) / math.factorial(k - 1) for k in range(1, L)],
                 dtype=complex)
    lambert = np.array([0.0] + [k ** (k - 1) / math.factorial(k) for k in range(1, L)])
    g = s_revert(f)
    assert g[0] == 0
    assert np.max(np.abs(g[1:] - lambert[1:]) / lambert[1:]) < 1e-12


def test_series_sqrt_and_inverse():
    L = 10
    a = np.zeros(L, dtype=complex)
    a[0], a[1], a[3] = 4.0, 1.0, 0.25j
    r = s_sqrt(a)
    assert np.max(np.abs(s_mul(r, r) - a)) < 1e-12
    assert np.max(np.abs(s_mul(a, s_inv(a)) - np.eye(1, L, 0)[0])) < 1e-12


def random_poly(rng, deg):
    return rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)


def test_horner_matches_polyval():
    rng = np.random.default_rng(17)
    for deg in (0, 1, 4, 9):
        P = random_poly(rng, deg)
        for z in rng.normal(size=3) + 1j * rng.normal(size=3):
            expect = np.polyval(P[::-1], z)
            assert abs(horner(P, z) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_poly_shift_is_taylor_expansion():
    # [w^k] P(b + w) = P^(k)(b) / k!, with zeros past the degree
    rng = np.random.default_rng(23)
    for deg, L in ((3, 6), (6, 4), (5, 6)):
        P = random_poly(rng, deg)
        b = complex(rng.normal(), rng.normal())
        got = poly_shift(P, b, L)
        assert got.dtype == complex and len(got) == L
        p = np.poly1d(P[::-1])
        for k in range(L):
            expect = np.polyval(np.polyder(p, k), b) / math.factorial(k)
            assert abs(got[k] - expect) <= 1e-12 * max(1.0, abs(expect))


# --- instantiation ----------------------------------------------------------------

def test_branchpoint_count(curve10):
    assert len(curve10.branchpoints) == 2     # M * D2 = 1 * 2


def test_branchpoint_count_general():
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 6)],
                              q=[F(1, 5), F(1, 8)], T=4)
    curve = instantiate_curve(solve_system(params), 1e-3)
    assert len(curve.branchpoints) == 4       # M * D2 = 2 * 2


def test_branchpoint_count_exponential():
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 6)],
                              q=[F(1, 5), F(1, 8)], T=4, u_exp=F(1, 4))
    curve = instantiate_curve(solve_system(params), 1e-3)
    assert len(curve.branchpoints) == 4       # (M + 1) * D2


def test_branchpoint_asymptotics():
    params = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 6)],
                              q=[F(1, 5), F(1, 8)], T=6)
    sd = solve_system(params)
    a = sorted(initial_ramification(params), key=lambda z: (z.real, z.imag))
    errs = []
    for tv in (1e-2, 1e-3, 1e-4):
        curve = instantiate_curve(sd, tv)
        bt = sorted((b * tv for b in curve.branchpoints),
                    key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        errs.append(max(abs(x - y) for x, y in zip(bt, a)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_alpha0_scaling_branchpoints():
    # with no internal faces the curve depends on t z only: b_i = a_i / t
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[0], q=[F(1, 5), F(1, 8)], T=4)
    sd = solve_system(params)
    a = sorted(initial_ramification(params), key=lambda z: (z.real, z.imag))
    curve = instantiate_curve(sd, 1e-3)
    bt = sorted((b * 1e-3 for b in curve.branchpoints),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert max(abs(x - y) for x, y in zip(bt, a)) < 1e-10


def test_t_cap_guard():
    with pytest.raises(RingUsageError):
        instantiate_curve(solve_system(GENERIC_10), 0.9)


# --- local data -------------------------------------------------------------------

def test_local_involution_residuals(curve10):
    for i in range(len(curve10.branchpoints)):
        ld = local_data(curve10, i, 18)
        assert ld.checks["involution"] < 1e-10
        assert ld.checks["x_invariance"] < 1e-10
        assert abs(ld.s[1] + 1.0) < 1e-12   # leading term is -w


def test_local_data_depth_guard(curve10):
    with pytest.raises(RingUsageError):
        local_data(curve10, 0, curve10.max_depth + 1)


def test_moebius_curve_involution_hand_expansion():
    # q = (0, q2) gives X = 1/z + c z with c = u q2 t^2; the involution is the
    # global map z -> 1/(c z), whose expansion at b = 1/sqrt(c) is
    # s(w) = -w (1 - w/b + (w/b)^2 - ...)
    curve = alpha0_curve(
        ModelParams.make(1, 0, u=[F(1)], p=[0], q=[0, F(1)], T=2), 1e-2)
    bpos = [b for b in curve.branchpoints if b.real > 0][0]
    i = curve.branchpoints.index(bpos)
    ld = local_data(curve, i, 10)
    for k in (1, 2, 3):
        expect = (-1.0 / bpos) ** k
        assert abs(ld.involution_coeffs[k] - expect) < 1e-10 * abs(expect)


def test_kernel_parity(curve10):
    ld = local_data(curve10, 0, 18)
    rng = np.random.default_rng(5)
    others = [abs(ld.b - b) for b in curve10.branchpoints if b != ld.b]
    rad = 0.03 * min([abs(ld.b)] + others)
    for _ in range(5):
        w = rad * np.exp(2j * np.pi * rng.random())
        z = ld.b + w
        sig = ld.b + horner(ld.s, w)
        spw = horner(ld.sp, w)
        k1 = _kernel_value(curve10, ld, 5.0 + 2j, z, sig)
        k2 = _kernel_value(curve10, ld, 5.0 + 2j, sig, z)
        # parity of the (-1)-differential: the jacobian of the involution
        # converts between the two evaluations
        assert abs(k2 - k1 * spw) / abs(k1) < 1e-9


# --- the recursion ----------------------------------------------------------------

def test_pole_structure(omega10):
    assert omega10.min_pole_order(0, 3) == 2
    assert omega10.max_pole_order(0, 3) == 2
    assert omega10.max_pole_order(1, 1) <= 4


def test_symmetry_tensors(omega10):
    assert max(omega10.asymmetry.values()) < 1e-9


def test_symmetry_by_evaluation(curve10, omega10):
    # the tensors hold sorted multi-indices only, and evaluate expands them;
    # points at the branchpoints' scale keep the pole sums well conditioned
    scale = max(abs(b) for b in curve10.branchpoints)
    rng = np.random.default_rng(11)
    for g, n in ((0, 3), (0, 4), (1, 3)):
        for _ in range(5):
            zs = tuple(scale * (1.5 + 2 * rng.random())
                       * np.exp(2j * np.pi * rng.random()) for _ in range(n))
            base = omega10.evaluate(g, n, zs)
            for perm in permutations(range(n)):
                v = omega10.evaluate(g, n, tuple(zs[i] for i in perm))
                assert abs(v - base) / abs(base) < 1e-12


@pytest.mark.parametrize("box, stored, records", [
    ((2, 3), 710, 3814), ((2, 4), 2267, 36528)])
def test_sorted_storage_expands_in_records(curve10, box, stored, records):
    omega = tr_compute(curve10, *box)
    assert all(list(midx) == sorted(midx)
               for tensor in omega.tensors.values() for midx in tensor)
    assert sum(map(len, omega.tensors.values())) == stored
    recs = omega.to_records()
    assert sum(map(len, recs.values())) == records
    for (g, n), tensor in omega.tensors.items():
        rows = recs[f"{g},{n}"]
        # every ordering of every multi-index once, in the order of the
        # ordered multi-indices, each with its multi-index's coefficient
        assert [tuple(map(tuple, r["multi_index"])) for r in rows] == sorted(
            {p for midx in tensor for p in permutations(midx)})
        for r in rows:
            val = tensor[tuple(sorted(map(tuple, r["multi_index"])))]
            assert r["coeff"] == [val.real, val.imag]


def loop_evaluate(omega, g, n, zs):
    """Reference: every ordering of every entry as its own term, each
    divided by (z - b_j)^k slot by slot; with the sum of term magnitudes."""
    poles, coeff = _coo(omega.tensors[(g, n)], n)
    poles, src = _orderings(poles)
    bps = np.asarray(omega.curve.branchpoints)
    terms = coeff[src]
    for (j, k), z in zip(poles.transpose(1, 2, 0), zs):
        terms = terms / (np.asarray(z)[..., None] - bps[j]) ** k
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def test_evaluate_equals_the_term_loop(curve10):
    # at points alone the arithmetic is the loop's, so the values are equal;
    # with arrays of points, terms sharing their poles there are summed
    # first, which moves the value by a few roundings of its largest terms
    omega = tr_compute(curve10, 2, 3)
    rng = np.random.default_rng(5)
    scale = max(abs(b) for b in curve10.branchpoints)
    for (g, n) in omega.tensors:
        zs = [complex(scale * (1.5 + 2 * rng.random()) * np.exp(2j * np.pi * rng.random()))
              for _ in range(n)]
        ref, mag = loop_evaluate(omega, g, n, zs)
        val, cond = omega.evaluate(g, n, zs, with_condition=True)
        assert val == ref and cond == mag / np.maximum(np.abs(ref), 1e-300)
        arrays = [z * np.exp(0.3j * rng.random(50)) for z in zs[:2]] + zs[2:]
        ref, mag = loop_evaluate(omega, g, n, arrays)
        assert np.all(np.abs(omega.evaluate(g, n, arrays) - ref) <= 8 * 2.3e-16 * mag)


def test_evaluate_with_shared_tables_is_bit_identical(curve10):
    # tables built to a higher order than the correlator's, as the
    # quadrature check shares them, give the values of tables built per call
    omega = tr_compute(curve10, 2, 3)
    bps = np.asarray(curve10.branchpoints)
    circle = bps[0] + 0.05 * abs(bps[0]) * np.exp(np.linspace(0, 2j * np.pi, 40))
    for (g, n) in omega.tensors:
        zs = [circle, bps[0] + (circle - bps[0]) ** 2 / abs(bps[0])]
        zs = (zs + [3.0 * b * 1j ** k for k, b in enumerate(bps)] * n)[:n]
        tables = [_pole_powers(z, bps, omega.max_pole_order(g, n) + 3) for z in zs]
        for cond in (False, True):
            a = omega.evaluate(g, n, zs, with_condition=cond)
            b = omega.evaluate(g, n, zs, with_condition=cond, tables=tables)
            assert all(np.array_equal(x, y) for x, y in zip(np.atleast_1d(a), np.atleast_1d(b)))


@pytest.mark.parametrize("seed", [0, 3, 7, 17, 2 ** 32 - 1])
def test_uniforms_are_numpy_default_rng(seed):
    rng = np.random.default_rng(seed)
    uniform = _uniforms(seed)
    assert [next(uniform) for _ in range(200)] == [rng.random() for _ in range(200)]


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 1.5])
def test_uniforms_reject_seeds_outside_32_bits(seed):
    with pytest.raises(RingUsageError):
        _uniforms(seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sample_points_are_the_numpy_points(n):
    # the formula every earlier `wht tr` and `verify.json` drew its points by
    rng = np.random.default_rng(3)
    old = [tuple((2 + 6 * rng.random()) * np.exp(2j * np.pi * rng.random())
                 for _ in range(n)) for _ in range(5)]
    assert tr_sample_points(n) == old


def test_universal_three_point_coefficient(curve10, omega10):
    # omega_{0,3} for a curve with simple branchpoints has the closed form
    # sum_i -1/(Y'(b_i) X''(b_i)) prod_j (z_j - b_i)^(-2)
    for i, b in enumerate(curve10.branchpoints):
        xs, ys = curve10.xy_series(b, 4)
        closed = -1.0 / (ys[1] * 2 * xs[2])
        got = omega10.tensors[(0, 3)][((i, 2), (i, 2), (i, 2))]
        assert abs(got - closed) / abs(closed) < 1e-10


@pytest.mark.parametrize("base", [7, 2 ** 40])
def test_group_rows_matches_lexicographic_unique(base):
    # with base 2^40 three columns overflow one int64 key, and the grouping
    # re-ranks the packed key before the third column
    rng = np.random.default_rng(2)
    codes = rng.integers(0, 3, size=(200, 3)) * (base // 3)
    first, group = _group_rows(codes, base)
    uniq, inv = np.unique(codes, axis=0, return_inverse=True)
    assert (codes[first] == uniq).all()
    assert (group == inv.ravel()).all()


def test_residue_depth_robustness():
    sd = solve_system(GENERIC_10)
    a = tr_compute(instantiate_curve(sd, 1e-3), 1, 1, depth_margin=4)
    b = tr_compute(instantiate_curve(sd, 1e-3), 1, 1, depth_margin=8)
    for k, v in a.tensors[(1, 1)].items():
        assert abs(v - b.tensors[(1, 1)].get(k, 0j)) / max(abs(v), 1e-300) < 1e-9


def test_quadrature_double_check(curve10):
    # every computed step is checked; (1,2) read 0.37 while the drop rule
    # cut real low-order coefficients
    omega = tr_compute(curve10, 1, 3, quadrature_check=True)
    assert set(omega.quadrature) == set(omega.tensors)
    assert omega.quadrature[(1, 1)] < 1e-9
    for gn in ((0, 3), (0, 4), (1, 2)):
        assert omega.quadrature[gn] <= 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP open item 5 (quadrature check "
                   "at high pole order): 2.9e-5 at (2,1) with radii 0.05, 0.08")
def test_quadrature_genus_two(curve10):
    omega = tr_compute(curve10, 2, 1, quadrature_check=True)
    assert omega.quadrature[(2, 1)] <= 1e-8


def test_default_is_the_box_closure(omega10):
    assert set(omega10.tensors) == {(0, 3), (0, 4), (1, 1), (1, 2), (1, 3)}


def test_recursion_is_deterministic(curve10, omega10):
    again = tr_compute(curve10, 1, 3)
    assert again.tensors == omega10.tensors
    assert again.condition == omega10.condition
    assert again.asymmetry == omega10.asymmetry


def test_alpha0_two_construction_paths_agree():
    p0 = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[0],
                          q=[F(1, 5), F(1, 8)], T=6)
    o1 = tr_compute(instantiate_curve(solve_system(p0), 1e-3), 1, 3)
    o2 = tr_compute(alpha0_curve(p0, 1e-3), 1, 3)
    for gn in o1.tensors:
        for k, v in o1.tensors[gn].items():
            assert abs(v - o2.tensors[gn].get(k, 0j)) / max(abs(v), 1e-300) < 1e-9


def test_exponential_curve_recursion_runs():
    params = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 6)],
                              q=[F(1, 5), F(1, 8)], T=5, u_exp=F(1, 4))
    curve = instantiate_curve(solve_system(params), 1e-3)
    omega = tr_compute(curve, 1, 3, quadrature_check=True)
    assert max(omega.asymmetry.values()) < 1e-9
    assert omega.quadrature[(0, 3)] < 1e-9
    assert omega.max_pole_order(0, 3) == 2


# --- oracle comparison --------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle10():
    tab = build_table(GENERIC_10, 6, EllBounds())
    return {gn: wgn_oracle(tab, GENERIC_10, *gn)
            for gn in [(0, 1), (0, 2), (0, 3), (1, 1)]}


def sample_points(n, count=5, seed=3):
    rng = np.random.default_rng(seed)
    return [tuple((2 + 6 * rng.random()) * np.exp(2j * np.pi * rng.random())
                  for _ in range(n)) for _ in range(count)]


def test_exact_theorem_cases_disk_cylinder(curve10, omega10, oracle10):
    samples = {(0, 1): sample_points(1), (0, 2): sample_points(2)}
    rep = compare_oracle(omega10, oracle10, curve10, samples, tol=1e-9)
    assert rep["cases"]["0,1"]["max"] < 1e-9
    assert rep["cases"]["0,2"]["max"] < 1e-9


def test_headline_cases(curve10, omega10, oracle10):
    samples = {(0, 3): sample_points(3), (1, 1): sample_points(1)}
    rep = compare_oracle(omega10, oracle10, curve10, samples, tol=1e-6)
    assert rep["pass"]
    assert rep["cases"]["0,3"]["max"] <= 1e-6
    assert rep["cases"]["1,1"]["max"] <= 1e-6


def test_sharp_one_holed_torus_vs_deep_character_oracle(curve10):
    # d = 8 oracle: series truncation is negligible, and the pole sum cancels
    # by ~1e8 at these sample points, so agreement at ~1e-7 certifies the
    # tensor coefficients at close to machine precision
    from wht.oracle import wgn_via_characters
    from wht.toprec import evaluate_oracle_wgn
    deep = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 6), F(1, 10)],
                            q=[F(1, 5), F(1, 8)], T=8)
    w11 = wgn_via_characters(deep, 8, 1, 1)
    omega = tr_compute(curve10, 1, 1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = (2 + 6 * rng.random()) * np.exp(2j * np.pi * rng.random())
        tr = omega.evaluate(1, 1, (z,))
        orc = (evaluate_oracle_wgn(w11, curve10.t, [1.0 / curve10.X(z)])
               * curve10.x_series(z, 2)[1])
        assert abs(tr - orc) / abs(tr) < 5e-7


def test_two_point_torus_vs_deep_character_oracle(curve10, omega10):
    # the d = 8 character series reaches (1,2), which the enumeration does
    # not; the deviation was 1.0 while the drop rule cut real low-order
    # coefficients, and the sample points' float floor is about 7e-5
    from wht.oracle import wgn_via_characters
    deep = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 6), F(1, 10)],
                            q=[F(1, 5), F(1, 8)], T=8)
    rep = compare_oracle(omega10, {(1, 2): wgn_via_characters(deep, 8, 1, 2)},
                         curve10, {(1, 2): sample_points(2)}, tol=1e-6)
    assert rep["pass"]
    assert rep["cases"]["1,2"]["max"] < 1e-4


def test_sample_guard(curve10, omega10, oracle10):
    bad = [(curve10.branchpoints[0] * 1.001,)]
    with pytest.raises(RingUsageError):
        compare_oracle(omega10, oracle10, curve10, {(1, 1): bad}, tol=1e-6)


def test_export_records(omega10):
    recs = omega10.to_records()
    assert "0,3" in recs and "1,1" in recs
    row = recs["0,3"][0]
    assert set(row) == {"multi_index", "coeff"}
    assert len(row["coeff"]) == 2
