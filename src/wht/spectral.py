"""Exact solution of the coupled Laurent-polynomial system defining the
spectral curve, the disk and cylinder series, and ramification data.

The unknowns are, per color c, a polynomial A(z) (window [0, D2]) and a
series B(z) in 1/z (window [-D1, 0], constant term 1), coupled through
projection equations; the rational-exponential extension adds a pair
(eta, theta).  What runs at which truncation order:

* the system: one pass, order by order.  `_system_rhs` is evaluated once
  over ZStream blocks: slice k (the t^k coefficient) of A and eta reads B
  and theta below k, through t^s with s >= 1, and slice k of B and theta
  reads A and eta through k, so each slice of every block is computed once
  and fed back into B and theta for the next order.  A second `_system_rhs`
  call, over the ZLaurent values of the solved B and theta, must reproduce
  them (stationarity check); its blocks are the ones returned.  ZLaurent's
  products, inverses and exponentials run on the same slice kernels, so the
  check catches a wrong slice fed back into B or theta, while an error that
  the kernels make alike in both calls is left to their tests.
* Z: Lagrange inversion of Z = xb * Phi(Z) at order T, with the powers of
  Phi on the z-window [0, T] taken as one chain of ZStream products, whose
  slices are kept; one evaluation of the right-hand side at Z must give Z
  back.
* the disk: the curve value at Z, whose nonpositive xb-powers must cancel.
* the cylinder: a bilinear sum over the same chain,
  [xb1^(A+1) xb2^(B+1)] = sum_(k=1..B) k [z^(A+k)] Phi^A [z^(B-k)] Phi^B,
  which is xb1^2 xb2^2 d1 d2 log((Z(xb1) - Z(xb2)) / (xb1 - xb2)).  Its
  independent checks are the annular path route and the enumeration and
  character oracles.
* the ramification points: the zeros of R = (zN')D - N(zD') - ND +
  u_exp (z eta') N D, the numerator of zX'/X, built by `_ramification` on
  exact blocks.  `initial_ramification` takes its zeros on the t^0 blocks in
  w = t z; `formal_branchpoints` runs Newton in w on R over the solved blocks
  lifted to t-order depth + deg R, through t^(T - D2 + 1) at most.  The float
  route of `toprec` at a fixed t is their independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from math import lcm

import numpy as np

from .dense import horner, s_inv, s_mul
from .model import AssumptionViolation, ModelParams
from .ring import (
    MPoly, TSeries, ZLaurent, ZStream, RingDomainError, RingUsageError,
    interpolate, is_zero, scalar_invert, _poly_series, _stream,
)

__all__ = [
    "ColorSpec", "SpectralData", "BranchpointSet",
    "solve_system", "solve_bulk_approximation", "compute_Z", "assemble_curve",
    "w01", "w02", "initial_ramification", "formal_branchpoints",
    "insertion_identity_sides", "critical_t", "spectral_export",
]


@dataclass(frozen=True)
class ColorSpec:
    label: str
    u: object
    side: int            # +1 numerator color, -1 denominator color
    mult: int = 1


@dataclass
class SpectralData:
    params: ModelParams
    colors: tuple
    A: dict
    B: dict
    eta: ZLaurent | None
    theta: ZLaurent | None
    _Z: TSeries | None = None
    _H: ZLaurent | None = None
    # n -> the t^0..t^T slices of Phi^n, n = 1..T+1 (`compute_Z`)
    _phi_powers: dict | None = field(default=None, repr=False, compare=False)

    @property
    def T(self) -> int:
        return self.params.T

    def color(self, label) -> ColorSpec:
        for c in self.colors:
            if c.label == label:
                return c
        raise KeyError(label)


def _colors_from_params(params: ModelParams):
    cols = []
    for i in range(params.m):
        cols.append(ColorSpec(f"c{i}", params.u[i], +1))
    for j in range(params.m, params.M):
        cols.append(ColorSpec(f"c{j}", params.u[j], -1))
    return tuple(cols)


# ---------------------------------------------------------------------------
# the defining system


def _system_rhs(colors, params: ModelParams, B, theta):
    """The right-hand sides: new (A, eta) from (B, theta), then new (B, theta)
    from the new (A, eta).  The blocks are all ZLaurent, or all ZStream."""
    one = next(iter(B.values())).const(params.T, 1)
    A, eta = _half(colors, params, B, theta, one, -params.D2, 0, params.q, +1)
    B, theta = _half(colors, params, A, eta, one, 0, params.D1, params.p, -1)
    return A, B, eta, theta


def _half(colors, params: ModelParams, X, xi, one, lo, hi, weights, sign):
    """One half of the system; its products are clipped to [lo, hi].
    sign = +1: A_c = 1 + u_c [z^(>=0)] P / B_c and eta = [z^(>=0)] P, where
    P = sum_s q_s t^s z^s core^s and core = prod_c B_c^(side mult) *
    exp(u_exp theta) on [-D2, 0].  sign = -1: B_c = 1 + u_c [z^(<0)] P / A_c
    and theta = [z^(<0)] P, where P = sum_s p_s z^-s core^s and core is
    built from A and eta on [0, D1]."""
    inv = {c.label: X[c.label].invert(lo, hi) for c in colors}
    factors = []
    for c in colors:
        f = X[c.label] if c.side > 0 else inv[c.label]
        factors.append(f.power(c.mult, lo, hi) if c.mult != 1 else f)
    if params.u_exp is not None:
        factors.append(xi.clip(lo, hi).scale(params.u_exp).exp(lo, hi))
    core = reduce(lambda f, g: f.mul(g, lo, hi), factors)
    P, power = None, core
    for s, ws in enumerate(weights, 1):
        if s > 1:
            power = power.mul(core, lo, hi)
        term = power.zshift(sign * s).scale(ws)
        term = term.tshift(s) if sign > 0 else term
        P = term if P is None else P + term
    keep = (0, None) if sign > 0 else (None, -1)
    out = {c.label: one + P.mul(inv[c.label], *keep).scale(c.u) for c in colors}
    return out, (P.clip(*keep) if params.u_exp is not None else None)


def _solve_colors(colors, params: ModelParams) -> SpectralData:
    """Solve order by order: evaluate `_system_rhs` once over ZStream blocks
    and feed each slice of the new B and theta back into the unknown B and
    theta, for k = 0..T.  A second `_system_rhs` call over the ZLaurent
    values of the solved B and theta must give them back, or this raises;
    its blocks are returned."""
    T = params.T
    B = {c.label: ZStream.unknown(T) for c in colors}
    theta = ZStream.unknown(T) if params.has_exp else None
    _, B2, _, theta2 = _system_rhs(colors, params, B, theta)
    pairs = [(B[lbl], B2[lbl]) for lbl in B] + ([(theta, theta2)] if theta else [])
    for k in range(T + 1):
        for x, rhs in pairs:
            x.feed(rhs.slice(k))
    B = {lbl: blk.value() for lbl, blk in B2.items()}
    theta = theta2.value() if theta else None
    A3, B3, eta3, theta3 = _system_rhs(colors, params, B, theta)
    if any(not B3[lbl] == B[lbl] for lbl in B) or (theta and not theta3 == theta):
        raise RingDomainError("system sweep did not become stationary")
    return SpectralData(params=params, colors=tuple(colors), A=A3, B=B3,
                        eta=eta3, theta=theta3)


def solve_system(params: ModelParams) -> SpectralData:
    """Solve the defining equations for all colors, exactly per t-order."""
    return _solve_colors(_colors_from_params(params), params)


def system_residuals(sd: SpectralData) -> dict:
    """Substitute the solved blocks back into their defining equations and
    return the per-color residual blocks (all identically zero)."""
    A2, B2, eta2, theta2 = _system_rhs(sd.colors, sd.params, sd.B, sd.theta)
    out = {}
    for c in sd.colors:
        out[("A", c.label)] = sd.A[c.label] - A2[c.label]
        out[("B", c.label)] = sd.B[c.label] - B2[c.label]
    if sd.params.has_exp:
        out[("eta", "")] = sd.eta - eta2
        out[("theta", "")] = sd.theta - theta2
    return out


def solve_bulk_approximation(params: ModelParams, N: int) -> SpectralData:
    """Rational stand-in for the exponential weight: one extra numerator color
    of weight u_exp / N repeated N times.  Converges to the exponential model
    like 1/N, which the tests quantify."""
    if not params.has_exp:
        raise RingUsageError("bulk approximation needs an exponential weight")
    base = replace(params, u_exp=None)
    ub = params.u_exp * Fraction(1, N)
    cols = list(_colors_from_params(base)) + [ColorSpec("bulk", ub, +1, mult=N)]
    return _solve_colors(tuple(cols), base)


# ---------------------------------------------------------------------------
# Z, curve, disk and cylinder series


def compute_Z(sd: SpectralData) -> TSeries:
    """The substitution series Z = xb * Phi(Z), with Z = xb + O(t), by
    Lagrange inversion: [xb^n] Z = (1/n) [z^(n-1)] Phi(z)^n, where
    Phi = prod A^(side * mult) * exp(u_exp * eta) is a Laurent block on the
    window [0, T] (its z^k coefficient is O(t^k)), so n runs to T + 1.  The
    powers are one chain of ZStream products Phi^n = Phi^(n-1) Phi, whose
    slices stay on `sd` for `w02`.  One evaluation of the right-hand side at
    Z must reproduce Z, or this raises."""
    if sd._Z is not None:
        return sd._Z
    T = sd.T
    phi = ZLaurent.const(T, 1)
    for c in sd.colors:
        f = sd.A[c.label] if c.side > 0 else sd.A[c.label].invert(0, T)
        phi = phi.mul(f.power(c.mult, 0, T), 0, T)
    if sd.params.has_exp:
        phi = phi.mul(sd.eta.scale(sd.params.u_exp).exp(0, T), 0, T)
    phi = _stream(phi)
    terms = [[] for _ in range(T + 1)]       # [t^j] Z as Fraction terms of xb^n
    powers, phi_n = {}, phi
    for n in range(1, T + 2):
        if n > 1:
            phi_n = phi_n.mul(phi, 0, T)
        phi_n.slice(T)
        powers[n] = phi_n.slices
        for j, sl in enumerate(phi_n.slices):
            for e, num in sl.row:
                if e == n - 1:
                    terms[j].append(((n,), num, sl.den * n, True))
    Z = _poly_series(T, ("xb",), terms)
    xb = TSeries.const(T, MPoly.var("xb"))
    if not (Z - _z_rhs(sd, Z, xb)).is_zero():
        raise RingDomainError("Z is not a fixed point of its defining equation")
    sd._Z, sd._phi_powers = Z, powers
    return Z


def _z_rhs(sd: SpectralData, Z: TSeries, xb: TSeries) -> TSeries:
    return xb * _ratio(sd, Z)


def _ratio(sd: SpectralData, g: TSeries) -> TSeries:
    """The unit series Phi(g) = prod A_c(g)^(side * mult) exp(u_exp eta(g))."""
    num = TSeries.const(sd.T, 1)
    den = TSeries.const(sd.T, 1)
    for c in sd.colors:
        val = _zl_eval_poly(sd.A[c.label], g)
        val = val ** c.mult if c.mult != 1 else val
        if c.side > 0:
            num = num * val
        else:
            den = den * val
    ratio = num * den.invert()
    if sd.params.has_exp:
        ratio = ratio * _zl_eval_poly(sd.eta, g).scale(sd.params.u_exp).exp()
    return ratio


def _zl_eval_poly(zl: ZLaurent, g: TSeries) -> TSeries:
    """Evaluate a nonnegative-window Laurent polynomial at a series."""
    win = zl.window()
    if win and win[0] < 0:
        raise RingUsageError("negative exponents in polynomial evaluation")
    return zl.eval_series(g)


def reference_color(sd: SpectralData) -> ColorSpec:
    for c in sd.colors:
        if c.u:
            return c
    raise RingDomainError("no color with invertible weight")


def assemble_curve(sd: SpectralData):
    """Common Laurent polynomial H = (A B - 1)/u checked across colors, plus
    the two product blocks of z X(z).  Returns (Xnum, Xden, H)."""
    if sd._H is None:
        ref = reference_color(sd)
        H = (sd.A[ref.label].mul(sd.B[ref.label])
             - ZLaurent.const(sd.T, 1)).scale(scalar_invert(ref.u))
        for c in sd.colors:
            if c.label == ref.label or not c.u:
                continue
            Hc = (sd.A[c.label].mul(sd.B[c.label])
                  - ZLaurent.const(sd.T, 1)).scale(scalar_invert(c.u))
            if not (Hc == H):
                raise RingDomainError(
                    f"H mismatch between colors {ref.label} and {c.label}")
        sd._H = H
    Xnum = ZLaurent.const(sd.T, 1)
    Xden = ZLaurent.const(sd.T, 1)
    for c in sd.colors:
        f = sd.A[c.label].power(c.mult) if c.mult != 1 else sd.A[c.label]
        if c.side > 0:
            Xnum = Xnum.mul(f)
        else:
            Xden = Xden.mul(f)
    return Xnum, Xden, sd._H


def curve_at(sd: SpectralData, g: TSeries, ginv: TSeries) -> tuple:
    """The two curve functions evaluated along a substitution series, with
    exact series-in-t coefficients: X = (1/z) exp-factor prod-ratio and
    Y = H/X at z = g.  `ginv` must be the series inverse of g."""
    ratio = _ratio(sd, g)
    X = ginv * ratio
    _, _, H = assemble_curve(sd)
    Y = H.eval_series(g, ginv) * g * ratio.invert()
    return X, Y


def w01(sd: SpectralData) -> TSeries:
    """Disk series as a power series in xb: the curve value at Z(x), minus the
    internal-face shift; all nonpositive xb-exponents must cancel."""
    Z = compute_Z(sd)
    _, _, H = assemble_curve(sd)
    val = _h_at_Z(H, Z)
    xb = TSeries.const(sd.T, MPoly.var("xb"))
    out = xb * val
    for k in range(1, sd.params.D1 + 1):
        shift = MPoly.var("xb", 1 - k) * sd.params.p[k - 1]
        out = out - TSeries.const(sd.T, shift)
    for c in out.coeffs:
        if isinstance(c, MPoly) and any(
                dict(m).get("xb", 0) <= 0 for m in c.terms):
            raise RingDomainError("disk series kept a nonpositive power of xb")
    return out


def _h_at_Z(H: ZLaurent, Z: TSeries) -> TSeries:
    win = H.window()
    lo = win[0] if win else 0
    Zinv = None
    if lo < 0:
        # Z = xb * unit; invert the unit and shift the xb exponent
        T = Z.order
        xinv = TSeries.const(T, MPoly.var("xb", -1))
        U = Z * xinv
        Zinv = U.invert() * xinv
    return H.eval_series(Z, Zinv)


def w02(sd: SpectralData) -> TSeries:
    """Cylinder series in (xb1, xb2) from the powers of Phi that `compute_Z`
    keeps: for A, B >= 1,
    [xb1^(A+1) xb2^(B+1)] w02 = sum_(k=1..B) k [z^(A+k)] Phi^A [z^(B-k)] Phi^B,
    which is O(t^(A+B)).  This is xb1^2 xb2^2 d1 d2 log R with
    R = (Z(xb1) - Z(xb2)) / (xb1 - xb2).  The sum is symmetric in A and B, so
    only A <= B is summed; each t^s coefficient of a pair is one integer sum
    over the slice pairs of Phi^A and Phi^B with z-exponents e1 + e2 = A + B,
    e1 > A, weighted by e1 - A."""
    compute_Z(sd)
    T, P = sd.T, sd._phi_powers
    at = {n: [dict(sl.row) for sl in P[n]] for n in range(1, T)}
    out = [{} for _ in range(T + 1)]    # {(a, b) of xb1^a xb2^b: (numerator, denominator)}
    for A in range(1, T // 2 + 1):
        for B in range(A, T - A + 1):
            for s in range(A + B, T + 1):
                sums = []
                # slice j of Phi^A holds z-exponents up to j, and e1 > A
                for j in range(A + 1, s + 1):
                    x, y = P[A][j], at[B][s - j]
                    if not y:
                        continue
                    acc = 0
                    for e1, n in x.row:
                        m = y.get(A + B - e1) if e1 > A else None
                        if m:
                            acc += (e1 - A) * n * m
                    if acc:
                        sums.append((acc, x.den * P[B][s - j].den))
                if not sums:
                    continue
                L = lcm(*(d for _, d in sums))
                c = sum(acc * (L // d) for acc, d in sums)
                if c:
                    out[s][A + 1, B + 1] = out[s][B + 1, A + 1] = (c, L)
    return _poly_series(T, ("xb1", "xb2"), [[(ab, n, d, True) for ab, (n, d) in t.items()]
                                             for t in out])


# ---------------------------------------------------------------------------
# ramification points


# relative distance below which ramification points count as zero or colliding
_GAP_TOL = 1e-8


def _euler(P: ZLaurent) -> ZLaurent:
    """z P'(z): the z^e coefficient scaled by e."""
    return ZLaurent(P.order, {e: ts.scale(e) for e, ts in P.coeffs.items()})


def _ramification(colors, A, eta, u_exp) -> ZLaurent:
    """R = (zN')D - N(zD') - ND + u_exp (z eta') N D, the numerator of zX'/X
    for X = (N/D) exp(u_exp eta) / z, with N and D the products of the
    numerator and denominator blocks A_c^mult.  Its zeros are the
    ramification points.  Every product is taken at the blocks' t-order."""
    N = D = ZLaurent.const(next(iter(A.values())).order, 1)
    for c in colors:
        f = A[c.label].power(c.mult) if c.mult != 1 else A[c.label]
        if c.side > 0:
            N = N.mul(f)
        else:
            D = D.mul(f)
    ND = N.mul(D)
    R = _euler(N).mul(D) - N.mul(_euler(D)) - ND
    if u_exp is not None:
        R = R + _euler(eta).mul(ND).scale(u_exp)
    return R


def initial_ramification(params: ModelParams):
    """Complex zeros of the leading-order ramification polynomial: R on the
    t^0 blocks in w = t z, A_c = 1 + u_c Q(w) and eta = Q(w), found via
    companion-matrix roots plus one Newton polish.  R is of degree one in
    each block, so it is taken on A_c / u_c = Q + 1/u_c as R / prod u_c.
    Degenerate configurations raise AssumptionViolation naming the failed
    clause."""
    colors = [c for c in _colors_from_params(params) if not is_zero(c.u)]
    expected = (len(colors) + (1 if params.has_exp else 0)) * params.D2
    Q = ZLaurent(0, {k: TSeries.const(0, qk) for k, qk in enumerate(params.q, 1)})
    R = _ramification(colors, {c.label: Q + scalar_invert(c.u) for c in colors},
                      Q, params.u_exp)
    P = [R.get(k).coeffs[0] for k in range(R.window()[1] + 1)]
    if len(P) - 1 != expected:
        raise AssumptionViolation(
            "root-count",
            f"ramification polynomial has degree {len(P) - 1}, expected {expected}")

    cs = np.array([complex(x) for x in P], dtype=complex)
    roots = np.roots(cs[::-1])
    # one Newton polish, with the derivative taken on the exact coefficients
    dcs = np.array([complex(k * x) for k, x in enumerate(P)][1:], dtype=complex)
    polished = []
    for z0 in roots:
        fz = horner(cs, z0)
        dfz = horner(dcs, z0)
        if abs(dfz) > 0:
            z0 = z0 - fz / dfz
        polished.append(z0)
    polished.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    scale = max(abs(z) for z in polished) if polished else 1.0
    for z in polished:
        if abs(z) <= _GAP_TOL * scale:
            raise AssumptionViolation("zero-root", f"ramification point near zero: {z}")
        w = sum(k * complex(params.q[k - 1]) * z ** k for k in range(1, params.D2 + 1))
        if abs(w) <= _GAP_TOL * max(1.0, abs(z) ** params.D2):
            raise AssumptionViolation(
                "derivative-weight", f"sum k q_k a^k vanishes at {z}")
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            if abs(polished[i] - polished[j]) <= _GAP_TOL * scale:
                raise AssumptionViolation(
                    "distinct-roots",
                    f"ramification points {i} and {j} collide")
    return polished


@dataclass
class BranchpointSet:
    initial: list
    formal: list           # per point, [c0, c1, ...] with a_i/t implied
    depth: int
    residual: float

    def value_at(self, i: int, t: complex) -> complex:
        b = self.initial[i] / t
        for k, c in enumerate(self.formal[i]):
            b += c * t ** k
        return b


def formal_branchpoints(sd: SpectralData, depth: int) -> BranchpointSet:
    """Newton iteration for the ramification points as Laurent series in t.

    In the rescaled coordinate w = t z the ramification polynomial R becomes
    a polynomial in w with power-series coefficients, the seeds are the
    initial ramification points, and each Newton step doubles the exact
    order.  [w^k] R is t^(-k) [z^k] R, so R is built on the blocks lifted to
    t-order depth + deg R: a product cut at t^T would lose [t^j] of
    [w^k] R for every j > T - k.

    The solved blocks fix the points through t^(T - D2 + 1) only: the top
    coefficients [z^D2] A_c = u_c q_D2 t^D2 and [z^D2] eta = q_D2 t^D2 are
    exact once T >= D2, and a coefficient [z^k] known through t^T gives
    [w^k] through t^(T - k) >= t^(T - D2 + 1) for k < D2.  T < D2, which
    drops the top coefficients, or a larger depth raises RingUsageError.
    """
    params = sd.params
    if sd.T < params.D2 or depth > sd.T - params.D2 + 1:
        raise RingUsageError(
            f"formal branchpoints need T >= D2 and depth <= T - D2 + 1, the "
            f"order through which the solved blocks fix them; got T = {sd.T}, "
            f"D2 = {params.D2}, depth = {depth}")
    seeds = initial_ramification(params)
    L = depth + 1
    deg = params.D2 * (sum(c.mult for c in sd.colors) + (1 if params.has_exp else 0))
    order = depth + deg
    R = _ramification(sd.colors, {lbl: _lifted(a, order) for lbl, a in sd.A.items()},
                      _lifted(sd.eta, order) if params.has_exp else None,
                      params.u_exp)
    Rw = _rescaled_poly(R, L, deg)
    dRw = [Rw[k] * k for k in range(1, len(Rw))]

    steps = max(3, depth.bit_length() + 2)
    formal = []
    residual = 0.0
    for a in seeds:
        w = np.zeros(L, dtype=complex)
        w[0] = a
        for _ in range(steps):
            r = _wpoly_eval(Rw, w)
            dr = _wpoly_eval(dRw, w)
            if abs(dr[0]) < 1e-13:
                raise AssumptionViolation(
                    "newton-stall", f"ramification Newton stalled at seed {a}")
            w = w - s_mul(r, s_inv(dr))
        res = _wpoly_eval(Rw, w)
        scale = max(1.0, float(np.max(np.abs(_wpoly_eval(dRw, w)))))
        residual = max(residual, float(np.max(np.abs(res))) / scale)
        formal.append(list(w[1:]) if L > 1 else [])
    return BranchpointSet(initial=seeds, formal=formal, depth=depth,
                          residual=residual)


def _lifted(zl: ZLaurent, order: int) -> ZLaurent:
    """The block at t-order `order`: its series padded with zeros or cut."""
    return ZLaurent(order, {e: TSeries(order, (ts.coeffs + (0,) * order)[:order + 1])
                            for e, ts in zl.coeffs.items()})


def _rescaled_poly(zl: ZLaurent, L: int, deg: int):
    """P(z) -> P(w/t) as a w-polynomial with complex t-series coefficients;
    needs every z^k coefficient to have t-valuation >= k."""
    out = []
    for k in range(deg + 1):
        ts = zl.get(k)
        arr = np.zeros(L, dtype=complex)
        for j, c in enumerate(ts.coeffs):
            if is_zero(c):
                continue
            if j < k:
                raise RingDomainError(
                    "z-degree exceeding t-order; rescaling invalid")
            if j - k < L:
                arr[j - k] = complex(c)
        out.append(arr)
    return out


def _wpoly_eval(a, w):
    """Horner over s_mul: the t-series a(w(t))."""
    acc = np.zeros(len(w), dtype=complex)
    for coeff in reversed(a):
        acc = s_mul(acc, w) + coeff
    return acc


# ---------------------------------------------------------------------------
# insertion identity and critical points


def insertion_identity_sides(params: ModelParams):
    """Both sides of the deformation identity: the rate of change of the disk
    curve value under scaling every internal white-face weight by "al",
    against the insertion-operator image of the cylinder series plus its
    diagonal shift.  Returns (lhs, rhs) as series with Laurent coefficients in
    xb and al (exact equality is the test).

    Both are polynomials in al, interpolated from solves at rational al: the
    t^k coefficient of the disk has al-degree at most max(1, k - 1) (its
    internal faces, or the diagonal shift at t^0), that of the cylinder at
    most k - 2, so with d = max(1, T - 1), d + 1 nodes and one check node
    suffice."""
    def sides(al):
        sd = solve_system(replace(params, p=tuple(al * pk for pk in params.p)))
        Z = compute_Z(sd)
        _, _, H = assemble_curve(sd)
        ydisk = TSeries.const(sd.T, MPoly.var("xb")) * _h_at_Z(H, Z)
        cyl = w02(sd)
        rhs = TSeries.zero(sd.T)
        for k in range(1, params.D1 + 1):
            pk = params.p[k - 1]
            coeff = cyl.map_coeffs(lambda c, k=k: c.coefficient_of("xb2", k + 1))
            rhs = rhs + coeff.scale(pk * Fraction(1, k))
            rhs = rhs + TSeries.const(sd.T, MPoly.var("xb", 1 - k, pk))
        return ydisk, rhs.map_coeffs(lambda c: c.rename({"xb1": "xb"})
                                     if isinstance(c, MPoly) else c)

    ydisk, rhs = interpolate(sides, "al", range(max(params.T - 1, 1) + 2))
    return ydisk.map_coeffs(lambda c: c.diff("al")), rhs


def critical_t(m: int, r: int) -> float:
    """Location t_c of the dominant singularity of the one-point system with
    unit weights, U = 1 + E ((m-1)/U + r/V) and V = 1 - E (m/U + (r+1)/V) with
    E = t U^m / V^r (no U when m = 0, no V when r = 0).

    E enters linearly, so eliminating it leaves t = N(x)/D(x) along the branch
    that starts from U = V = 1 at t = 0 (x = 1): for m = 0, x = V and
    t = (1-x) x^(r+1)/(r+1); for r = 0, x = U and t = (x-1)/((m-1) x^(m-1)).
    Otherwise (U, V) lies on the conic (U-1)(mV + (r+1)U) = (1-V)((m-1)V + rU)
    through (0, 0) and (1, 1); the line V = x U meets it again at U = u/c,
    with u = (2r+1) + (2m-1)x and c = (m-1)x^2 + (m+r)x + r+1, where
    t = (1-x) x^(r+1) u^(r+1-m) c^(m-r-2).

    t_c is the first stationary value of t met when x leaves 1 in the
    direction in which t grows, with no pole of t before it.  The smallest
    positive stationary value can lie off the branch: about 3e-11 for (1, 10)
    and 8e-4 for (6, 2).
    """
    return _critical_point(m, r)[0]


def _critical_point(m: int, r: int):
    """(t_c, U, V) at the critical point of `critical_t`."""
    if m == 0 and r == 0:
        raise RingDomainError("the one-point system of (0, 0) has no unknown")
    x = np.polynomial.Polynomial([0, 1])
    one = x ** 0
    # U = Un(x)/den(x), V = Vn(x)/den(x) along the branch
    if m == 0:
        N, D = (1 - x) * x ** (r + 1), (r + 1) * one
        Un, Vn, den = one, x, one
    elif r == 0:
        N, D = x - 1, (m - 1) * x ** (m - 1)
        Un, Vn, den = x, one, one
    else:
        u = (2 * r + 1) + (2 * m - 1) * x
        c = (m - 1) * x ** 2 + (m + r) * x + (r + 1)
        k = r + 1 - m
        N = (1 - x) * x ** (r + 1) * u ** max(k, 0) * c ** max(-k - 1, 0)
        D = c ** max(k + 1, 0) * u ** max(-k, 0)
        Un, Vn, den = u, x * u, c
    W = N.deriv() * D - N * D.deriv()
    grow = np.sign(N.deriv()(1.0) * D(1.0))
    if grow == 0:
        raise RingDomainError(f"the branch of ({m}, {r}) does not depend on t")

    def ahead(p):
        z = p.roots()
        dist = (z.real[abs(z.imag) < 1e-9] - 1.0) * grow
        return dist[dist > 1e-9]

    stat, poles = ahead(W), ahead(D)
    if not stat.size or (poles.size and poles.min() <= stat.min()):
        raise RingDomainError(f"t has no stationary value on the branch of ({m}, {r})")
    s = 1.0 + grow * stat.min()
    return float(N(s) / D(s)), float(Un(s) / den(s)), float(Vn(s) / den(s))


# ---------------------------------------------------------------------------
# export


def _ts_json(ts: TSeries):
    # rationals print as "2/3"; MPoly coefficients print through their repr
    return [str(c) for c in ts.coeffs]


def _zl_json(zl: ZLaurent):
    return {str(e): _ts_json(ts) for e, ts in sorted(zl.coeffs.items())}


def spectral_export(sd: SpectralData, branchpoints: BranchpointSet | None = None):
    Xnum, Xden, H = assemble_curve(sd)
    out = {
        "T": sd.T,
        "colors": [{"label": c.label, "side": c.side, "mult": c.mult,
                    "u": str(c.u)}
                   for c in sd.colors],
        "A": {c.label: _zl_json(sd.A[c.label]) for c in sd.colors},
        "B": {c.label: _zl_json(sd.B[c.label]) for c in sd.colors},
        "curve": {
            "X_num_coeffs": _zl_json(Xnum),
            "X_den_coeffs": _zl_json(Xden),
            "H_coeffs": _zl_json(H),
        },
    }
    if sd.eta is not None:
        out["eta"] = _zl_json(sd.eta)
        out["theta"] = _zl_json(sd.theta)
    if branchpoints is not None:
        out["curve"]["branchpoints"] = {
            "initial": [[z.real, z.imag] for z in branchpoints.initial],
            "formal": [[[z.real, z.imag] for z in row]
                       for row in branchpoints.formal],
            "depth": branchpoints.depth,
        }
    return out
