"""Order-by-order solution of the coupled Laurent-polynomial system defining
the spectral curve, the disk and cylinder series, and ramification data.

The unknowns are, per color c, a polynomial A(z) (window [0, D2]) and a
series B(z) in 1/z (window [-D1, 0], constant term 1), coupled through
projection equations; the rational-exponential extension adds a pair
(eta, theta).  A fixed-point sweep gains one exact t-order per pass because
every right-hand side reads strictly lower orders (for A, eta) or at most
the current order of already-updated blocks (for B, theta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dense import horner, s_inv, s_mul
from .model import AssumptionViolation, ModelParams
from .ring import (
    MPoly, TSeries, ZLaurent, RingDomainError, RingUsageError,
    divided_difference, is_zero, mpoly_div_linear, scalar_invert,
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
    health: dict = field(default_factory=dict)
    _Z: TSeries | None = None
    _H: ZLaurent | None = None

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


def _system_rhs(colors, params: ModelParams, A, B, eta, theta, exp_weight):
    """One full evaluation of the right-hand sides.  Returns new (A, eta) from
    the current (B, theta), then new (B, theta) from the new (A, eta)."""
    T = params.T
    D1, D2 = params.D1, params.D2
    one = ZLaurent.const(T, 1)

    # ---- A side: products of B powers on the window [-D2, 0]
    baseB = one
    invB = {}
    for c in colors:
        invB[c.label] = B[c.label].invert(-D2, 0)
        f = B[c.label] if c.side > 0 else invB[c.label]
        baseB = baseB.mul(f.power(c.mult, -D2, 0) if c.mult != 1 else f, -D2, 0)
    Etheta = None
    if exp_weight is not None:
        Etheta = theta.scale(exp_weight).exp(-D2, 0)

    newA = {}
    basepow = one
    epow = one
    new_eta = ZLaurent(T) if exp_weight is not None else None
    for s in range(1, D2 + 1):
        basepow = basepow.mul(baseB, -D2, 0)
        if Etheta is not None:
            epow = epow.mul(Etheta, -D2, 0)
        qs = params.q[s - 1]
        core = basepow if Etheta is None else basepow.mul(epow, -D2, 0)
        if exp_weight is not None:
            term = core.zshift(s).project("ge")
            term = term.map_coeffs(lambda ts: ts.scale(qs).tshift(s))
            new_eta = new_eta + term
        for c in colors:
            cur = core.mul(invB[c.label], -D2, 0).zshift(s).project("ge")
            cur = cur.map_coeffs(lambda ts: ts.scale(qs).tshift(s))
            newA.setdefault(c.label, ZLaurent(T))
            newA[c.label] = newA[c.label] + cur.scale(c.u)
    for c in colors:
        newA[c.label] = one + newA.get(c.label, ZLaurent(T))

    # ---- B side: products of A powers on the window [0, D1]
    baseA = one
    invA = {}
    for c in colors:
        invA[c.label] = newA[c.label].invert(0, D1)
        f = newA[c.label] if c.side > 0 else invA[c.label]
        baseA = baseA.mul(f.power(c.mult, 0, D1) if c.mult != 1 else f, 0, D1)
    Eeta = None
    if exp_weight is not None:
        Eeta = new_eta.clip(0, D1).scale(exp_weight).exp(0, D1)

    newB = {}
    basepow = one
    epow = one
    new_theta = ZLaurent(T) if exp_weight is not None else None
    for s in range(1, D1 + 1):
        basepow = basepow.mul(baseA, 0, D1)
        if Eeta is not None:
            epow = epow.mul(Eeta, 0, D1)
        ps = params.p[s - 1]
        core = basepow if Eeta is None else basepow.mul(epow, 0, D1)
        if exp_weight is not None:
            term = core.zshift(-s).project("lt")
            term = term.map_coeffs(lambda ts: ts.scale(ps))
            new_theta = new_theta + term
        for c in colors:
            cur = core.mul(invA[c.label], 0, D1).zshift(-s).project("lt")
            cur = cur.map_coeffs(lambda ts: ts.scale(ps))
            newB.setdefault(c.label, ZLaurent(T))
            newB[c.label] = newB[c.label] + cur.scale(c.u)
    for c in colors:
        newB[c.label] = one + newB.get(c.label, ZLaurent(T))

    return newA, newB, new_eta, new_theta


def _solve_colors(colors, params: ModelParams) -> SpectralData:
    T = params.T
    one = ZLaurent.const(T, 1)
    A = {c.label: one for c in colors}
    B = {c.label: one for c in colors}
    exp_weight = params.u_exp
    eta = ZLaurent(T) if params.has_exp else None
    theta = ZLaurent(T) if params.has_exp else None
    for _ in range(T + 2):
        A, B, eta, theta = _system_rhs(colors, params, A, B, eta, theta, exp_weight)
    # stationarity check: one more sweep must reproduce the solution exactly
    A2, B2, eta2, theta2 = _system_rhs(colors, params, A, B, eta, theta, exp_weight)
    health = {"stationary": True}
    for c in colors:
        if params.scalar_mode == "exact":
            if not (A2[c.label] == A[c.label] and B2[c.label] == B[c.label]):
                raise RingDomainError("system sweep did not become stationary")
        else:
            health["residual"] = max(
                health.get("residual", 0.0),
                _zl_dev(A2[c.label], A[c.label]), _zl_dev(B2[c.label], B[c.label]))
    if params.has_exp and params.scalar_mode == "exact":
        if not (eta2 == eta and theta2 == theta):
            raise RingDomainError("exp system sweep did not become stationary")
    return SpectralData(params=params, colors=tuple(colors), A=A, B=B,
                        eta=eta, theta=theta, health=health)


def _zl_dev(a: ZLaurent, b: ZLaurent) -> float:
    d = a - b
    worst = 0.0
    for ts in d.coeffs.values():
        for c in ts.coeffs:
            if isinstance(c, MPoly):
                vals = c.terms.values()
            else:
                vals = [c]
            for v in vals:
                worst = max(worst, abs(complex(v)))
    return worst


def solve_system(params: ModelParams) -> SpectralData:
    """Solve the defining equations for all colors, exactly per t-order."""
    return _solve_colors(_colors_from_params(params), params)


def system_residuals(sd: SpectralData) -> dict:
    """Substitute the solved blocks back into their defining equations and
    return the per-color residual blocks (all identically zero in exact
    mode)."""
    A2, B2, eta2, theta2 = _system_rhs(sd.colors, sd.params, sd.A, sd.B,
                                       sd.eta, sd.theta, sd.params.u_exp)
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
    base = ModelParams(
        m=params.m, r=params.r, u=params.u, p=params.p, q=params.q,
        T=params.T, u_exp=None, scalar_mode=params.scalar_mode,
        allow_zero_u=params.allow_zero_u)
    ub = (Fraction(params.u_exp) / N if isinstance(params.u_exp, (int, Fraction))
          else params.u_exp / N)
    cols = list(_colors_from_params(base)) + [ColorSpec("bulk", ub, +1, mult=N)]
    return _solve_colors(tuple(cols), base)


# ---------------------------------------------------------------------------
# Z, curve, disk and cylinder series


def compute_Z(sd: SpectralData) -> TSeries:
    """The substitution series: Z = xb * exp-factor * prod A(Z) ratios, with
    Z = xb + O(t); fixed point gains one t-order per pass."""
    if sd._Z is not None:
        return sd._Z
    T = sd.T
    xb = TSeries.const(T, MPoly.var("xb"))
    Z = xb
    for _ in range(T + 1):
        Z = _z_rhs(sd, Z, xb)
    if sd.params.scalar_mode == "exact":
        if not _ts_eq(Z, _z_rhs(sd, Z, xb)):
            raise RingDomainError("Z fixed point did not stabilise")
    sd._Z = Z
    return Z


def _z_rhs(sd: SpectralData, Z: TSeries, xb: TSeries) -> TSeries:
    num = TSeries.const(sd.T, 1)
    den = TSeries.const(sd.T, 1)
    for c in sd.colors:
        val = _zl_eval_poly(sd.A[c.label], Z)
        val = val ** c.mult if c.mult != 1 else val
        if c.side > 0:
            num = num * val
        else:
            den = den * val
    out = xb * num * den.invert()
    if sd.params.has_exp:
        ev = _zl_eval_poly(sd.eta, Z)
        out = out * ev.scale(sd.params.u_exp).exp()
    return out


def _zl_eval_poly(zl: ZLaurent, g: TSeries) -> TSeries:
    """Evaluate a nonnegative-window Laurent polynomial at a series."""
    win = zl.window()
    if win and win[0] < 0:
        raise RingUsageError("negative exponents in polynomial evaluation")
    return zl.eval_series(g)


def _ts_eq(a: TSeries, b: TSeries) -> bool:
    d = a - b
    return all(c.is_zero() if isinstance(c, MPoly) else is_zero(c) for c in d.coeffs)


def reference_color(sd: SpectralData) -> ColorSpec:
    for c in sd.colors:
        if isinstance(c.u, MPoly):
            if c.u.constant_or_none() not in (None, 0):
                return c
        elif not is_zero(c.u):
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
            if c.label == ref.label or is_zero(c.u) or isinstance(c.u, MPoly):
                if c.label != ref.label and isinstance(c.u, MPoly):
                    pass  # polynomial weights are checked in exact tests
                continue
            Hc = (sd.A[c.label].mul(sd.B[c.label])
                  - ZLaurent.const(sd.T, 1)).scale(scalar_invert(c.u))
            if sd.params.scalar_mode == "exact":
                if not (Hc == H):
                    raise RingDomainError(
                        f"H mismatch between colors {ref.label} and {c.label}")
            else:
                sd.health["H_dev"] = max(sd.health.get("H_dev", 0.0),
                                         _zl_dev(Hc, H))
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
    num = TSeries.const(sd.T, 1)
    den = TSeries.const(sd.T, 1)
    for c in sd.colors:
        val = _zl_eval_poly(sd.A[c.label], g)
        val = val ** c.mult if c.mult != 1 else val
        if c.side > 0:
            num = num * val
        else:
            den = den * val
    ratio = num * den.invert()          # unit series
    if sd.params.has_exp:
        ratio = ratio * _zl_eval_poly(sd.eta, g).scale(sd.params.u_exp).exp()
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
    """Cylinder series in (xb1, xb2); the diagonal double pole cancels exactly
    and the division below is exact polynomial division."""
    Z = compute_Z(sd)
    dZ = Z.map_coeffs(lambda c: c.diff("xb") if isinstance(c, MPoly) else 0)
    d1 = dZ.map_coeffs(lambda c: c.rename({"xb": "xb1"}) if isinstance(c, MPoly) else c)
    d2 = dZ.map_coeffs(lambda c: c.rename({"xb": "xb2"}) if isinstance(c, MPoly) else c)
    R = divided_difference(Z)
    Rinv = R.invert()
    N = d1 * d2 * Rinv * Rinv - TSeries.const(sd.T, 1)
    if isinstance(N.coeffs[0], MPoly):
        if not N.coeffs[0].is_zero():
            raise RingDomainError("cylinder series has a nonzero order-0 part")
    elif not is_zero(N.coeffs[0]):
        raise RingDomainError("cylinder series has a nonzero order-0 part")
    quot = N.map_coeffs(lambda c: mpoly_div_linear(
        mpoly_div_linear(c if isinstance(c, MPoly) else MPoly.const(c),
                         "xb1", "xb2"), "xb1", "xb2"))
    pref = MPoly.var("xb1", 2) * MPoly.var("xb2", 2)
    return quot.map_coeffs(lambda c: c * pref)


# ---------------------------------------------------------------------------
# ramification points


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in enumerate(b):
            if is_zero(y):
                continue
            out[i + j] = out[i + j] + x * y
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_scale(a, c):
    return [x * c for x in a]


def _poly_diff(a):
    return [i * a[i] for i in range(1, len(a))]


def _poly_trim(a):
    while a and is_zero(a[-1]):
        a = a[:-1]
    return a


def initial_ramification(params: ModelParams, gap_tol: float = 1e-8):
    """Complex zeros of the leading-order ramification equation, found from the
    cleared-denominator polynomial via companion-matrix roots plus one Newton
    polish.  Degenerate configurations raise AssumptionViolation naming the
    failed clause."""
    Q = [0] + list(params.q)
    dQ = _poly_diff(Q)
    factors = []
    for c in _colors_from_params(params):
        if is_zero(c.u):
            continue
        factors.append((_poly_add([scalar_invert(c.u)], Q), c.side))
    M_eff = len(factors)
    expected = (M_eff + (1 if params.has_exp else 0)) * params.D2

    prod_all = [1]
    for f, _ in factors:
        prod_all = _poly_mul(prod_all, f)
    bracket = [0]
    for k, (f, side) in enumerate(factors):
        partial = [1]
        for k2, (f2, _) in enumerate(factors):
            if k2 != k:
                partial = _poly_mul(partial, f2)
        bracket = _poly_add(bracket, _poly_scale(partial, side))
    if params.has_exp:
        bracket = _poly_add(bracket, _poly_scale(prod_all, params.u_exp))
    P = _poly_add(_poly_scale(prod_all, -1),
                  _poly_mul([0, 1], _poly_mul(dQ, bracket)))
    P = _poly_trim(P)
    if len(P) - 1 != expected:
        raise AssumptionViolation(
            "root-count",
            f"ramification polynomial has degree {len(P) - 1}, expected {expected}")

    cs = np.array([complex(x) for x in P], dtype=complex)
    roots = np.roots(cs[::-1])
    # one Newton polish, with the derivative taken on the exact coefficients
    dcs = np.array([complex(x) for x in _poly_diff(P)], dtype=complex)
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
        if abs(z) <= gap_tol * scale:
            raise AssumptionViolation("zero-root", f"ramification point near zero: {z}")
        w = sum(k * complex(params.q[k - 1]) * z ** k for k in range(1, params.D2 + 1))
        if abs(w) <= gap_tol * max(1.0, abs(z) ** params.D2):
            raise AssumptionViolation(
                "derivative-weight", f"sum k q_k a^k vanishes at {z}")
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            if abs(polished[i] - polished[j]) <= gap_tol * scale:
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

    Working in the rescaled coordinate w = t z the curve blocks become
    polynomials in w with power-series coefficients, the seeds are the initial
    ramification points, and each Newton step doubles the exact order.
    """
    params = sd.params
    if depth > sd.T:
        raise RingUsageError("depth exceeds the solved truncation order")
    seeds = initial_ramification(params)
    L = depth + 1

    Ahat = {}
    for c in sd.colors:
        Ahat[c.label] = _rescaled_poly(sd.A[c.label], L, params.D2)
    eta_hat = _rescaled_poly(sd.eta, L, params.D2) if params.has_exp else None

    # N(w) = numerator of d/dw log Xhat: sum over colors side * A'/A - 1/w (+ exp)
    prod_all = [np.array([1.0 + 0j] + [0] * (L - 1))]
    for c in sd.colors:
        for _ in range(c.mult):
            prod_all = _wpoly_mul(prod_all, Ahat[c.label])
    N = _wpoly_scale(prod_all, -1.0)
    for c in sd.colors:
        partial = [np.array([1.0 + 0j] + [0] * (L - 1))]
        for c2 in sd.colors:
            e = c2.mult - (1 if c2.label == c.label else 0)
            for _ in range(e):
                partial = _wpoly_mul(partial, Ahat[c2.label])
        term = _wpoly_mul(_wpoly_shift(_wpoly_diff(Ahat[c.label]), 1), partial)
        N = _wpoly_add(N, _wpoly_scale(term, c.side * c.mult))
    if params.has_exp:
        term = _wpoly_mul(_wpoly_shift(_wpoly_diff(eta_hat), 1), prod_all)
        N = _wpoly_add(N, _wpoly_scale(term, complex(params.u_exp)))
    dN = _wpoly_diff(N)

    steps = max(3, depth.bit_length() + 2)
    formal = []
    residual = 0.0
    for a in seeds:
        w = np.zeros(L, dtype=complex)
        w[0] = a
        for _ in range(steps):
            r = _wpoly_eval(N, w)
            dr = _wpoly_eval(dN, w)
            if abs(dr[0]) < 1e-13:
                raise AssumptionViolation(
                    "newton-stall", f"ramification Newton stalled at seed {a}")
            w = w - s_mul(r, s_inv(dr))
        res = _wpoly_eval(N, w)
        scale = max(1.0, float(np.max(np.abs(_wpoly_eval(dN, w)))))
        residual = max(residual, float(np.max(np.abs(res))) / scale)
        formal.append(list(w[1:]) if L > 1 else [])
    return BranchpointSet(initial=seeds, formal=formal, depth=depth,
                          residual=residual)


def _rescaled_poly(zl: ZLaurent, L: int, D2: int):
    """A(z) -> A(w/t) as a w-polynomial with complex t-series coefficients;
    needs every z^k coefficient to have t-valuation >= k."""
    out = []
    for k in range(D2 + 1):
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


# a w-polynomial is a list of dense t-series, one per power of w


def _wpoly_mul(a, b):
    L = len(a[0])
    out = [np.zeros(L, dtype=complex) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += s_mul(x, y)
    return out


def _wpoly_add(a, b):
    n = max(len(a), len(b))
    L = len(a[0]) if a else len(b[0])
    out = []
    for i in range(n):
        v = np.zeros(L, dtype=complex)
        if i < len(a):
            v = v + a[i]
        if i < len(b):
            v = v + b[i]
        out.append(v)
    return out


def _wpoly_scale(a, c):
    return [x * c for x in a]


def _wpoly_diff(a):
    return [a[i] * i for i in range(1, len(a))]


def _wpoly_shift(a, k):
    L = len(a[0])
    return [np.zeros(L, dtype=complex)] * k + list(a)


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
    xb (exact equality is the test)."""
    al = MPoly.var("al")
    scaled = ModelParams(
        m=params.m, r=params.r, u=params.u,
        p=tuple(al * pk for pk in params.p), q=params.q, T=params.T,
        u_exp=params.u_exp, scalar_mode=params.scalar_mode,
        allow_zero_u=params.allow_zero_u)
    sd = solve_system(scaled)
    Z = compute_Z(sd)
    _, _, H = assemble_curve(sd)
    ydisk = TSeries.const(sd.T, MPoly.var("xb")) * _h_at_Z(H, Z)
    lhs = ydisk.map_coeffs(lambda c: c.diff("al") if isinstance(c, MPoly) else 0)

    cyl = w02(sd)
    rhs = TSeries.zero(sd.T)
    for k in range(1, params.D1 + 1):
        pk = params.p[k - 1]
        coeff = cyl.map_coeffs(lambda c, k=k: c.coefficient_of("xb2", k + 1)
                               if isinstance(c, MPoly) else MPoly())
        rhs = rhs + coeff.scale(pk * Fraction(1, k)
                                if isinstance(pk, (int, Fraction)) else pk / k)
        rhs = rhs + TSeries.const(sd.T, MPoly.var("xb", 1 - k, pk))
    rhs = rhs.map_coeffs(lambda c: c.rename({"xb1": "xb"})
                         if isinstance(c, MPoly) else c)
    return lhs, rhs


def critical_t(m: int, r: int):
    """Location of the dominant singularity of the one-point system with unit
    weights: critical point of the polynomial fixed-point equations, found by
    eliminating down to a univariate polynomial in t.

    Returns (t_critical, univariate sympy polynomial in t).
    """
    import sympy as sp

    U, V, t = sp.symbols("U V t", positive=False)
    Ue = U if m >= 1 else sp.Integer(1)
    Ve = V if r >= 1 else sp.Integer(1)
    E = t * Ue ** m / Ve ** r
    eqs = []
    vs = []
    if m >= 1:
        eqs.append(U - 1 - E * (sp.Rational(m - 1) / Ue + sp.Rational(r) / Ve))
        vs.append(U)
    if r >= 1:
        eqs.append(V - 1 + E * (sp.Rational(m) / Ue + sp.Rational(r + 1) / Ve))
        vs.append(V)
    jac = sp.Matrix([[sp.diff(f, v) for v in vs] for f in eqs])
    eqs = eqs + [jac.det()]
    polys = [sp.numer(sp.together(f)) for f in eqs]

    def eliminate_to(keep):
        order = [s for s in (U, V, t) if s is not keep and s in
                 set().union(*[p.free_symbols for p in polys])] + [keep]
        gb = sp.groebner(polys, *order, order="lex")
        for g in gb.exprs:
            if g.free_symbols <= {keep}:
                return sp.Poly(g, keep)
        return None

    uni = eliminate_to(t)
    if uni is None:
        raise RingDomainError("elimination produced no univariate polynomial")
    roots = [complex(z) for z in sp.nroots(uni)]
    cands = [z.real for z in roots
             if abs(z.imag) < 1e-12 and z.real > 1e-12]
    if not cands:
        raise RingDomainError("no positive critical value found")
    var_polys = {}
    for v in vs:
        pv = eliminate_to(v)
        if pv is not None:
            var_polys[str(v)] = pv
    return min(cands), {"t_poly": uni, "var_polys": var_polys}


# ---------------------------------------------------------------------------
# export


def _scalar_json(c):
    if isinstance(c, (int, Fraction)):
        return str(c)
    z = complex(c)
    return [z.real, z.imag]


def _ts_json(ts: TSeries):
    return [_scalar_json(c) if not isinstance(c, MPoly) else repr(c)
            for c in ts.coeffs]


def _zl_json(zl: ZLaurent):
    return {str(e): _ts_json(ts) for e, ts in sorted(zl.coeffs.items())}


def spectral_export(sd: SpectralData, branchpoints: BranchpointSet | None = None):
    Xnum, Xden, H = assemble_curve(sd)
    out = {
        "T": sd.T,
        "colors": [{"label": c.label, "side": c.side, "mult": c.mult,
                    "u": _scalar_json(c.u) if not isinstance(c.u, MPoly) else repr(c.u)}
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
