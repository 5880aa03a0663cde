"""Numeric topological recursion on the instantiated curve.

The curve blocks are evaluated at a complex expansion-parameter value; the
branchpoints, local involutions, recursion kernels and residues are all
handled through truncated local power series (never contour quadrature on the
main path; a trapezoid contour check is available as an independent
validation).  Outputs are stored in pole-coefficient form: each correlator
differential is a finite combination of pure poles at the branchpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .dense import (
    horner, l_add, l_coeff_product, l_low, l_mul, poly_shift, poly_sub,
    s_compose, s_diff, s_exp, s_inv, s_mul, s_revert, s_sqrt, wseries,
)
from .model import AssumptionViolation, ModelParams
from .ring import MPoly, RingUsageError, TSeries, is_zero
from .spectral import SpectralData, assemble_curve

__all__ = [
    "NumericCurve", "LocalData", "OmegaSet",
    "instantiate_curve", "alpha0_curve", "local_data", "tr_compute",
    "compare_oracle", "residue_quadrature_check", "evaluate_oracle_wgn",
]


# ---------------------------------------------------------------------------
# curve instantiation


@dataclass
class NumericCurve:
    t: complex
    Np: np.ndarray            # numerator product coefficients
    Dp: np.ndarray            # denominator product coefficients
    H: dict                   # z-exponent -> complex
    eta: np.ndarray | None
    u_exp: complex | None
    branchpoints: list
    tol: float
    max_depth: int
    # internal-face weights p_k by face degree k: the disk comparison adds
    # sum_k p_k x^(k-1) back to the oracle series
    p_weights: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    _local: dict = field(default_factory=dict)

    def X(self, z: complex) -> complex:
        val = horner(self.Np, z) / (z * horner(self.Dp, z))
        if self.eta is not None:
            val *= np.exp(self.u_exp * horner(self.eta, z))
        return val

    def Y(self, z: complex) -> complex:
        h = sum(c * z ** e for e, c in self.H.items())
        return h / self.X(z)

    def Xp(self, z: complex) -> complex:
        xs = self.x_series(z, 2)
        return xs[1]

    def x_series(self, b: complex, L: int):
        """Taylor coefficients of X(b + w)."""
        n = poly_shift(self.Np, b, L)
        d = poly_shift(self.Dp, b, L)
        zd = s_mul(poly_shift([b * 0, b * 0 + 1], b, L), d)
        out = s_mul(n, s_inv(zd))
        if self.eta is not None:
            e = poly_shift(self.eta, b, L) * self.u_exp
            c0 = e[0]
            e[0] = 0
            out = s_mul(out, s_exp(e)) * np.exp(c0)
        return out

    def y_series(self, b: complex, L: int):
        h = np.zeros(L, dtype=complex)
        neg = [(-e, c) for e, c in self.H.items() if e < 0]
        pos = [(e, c) for e, c in self.H.items() if e >= 0]
        for e, c in pos:
            h = h + c * poly_shift([b * 0] * e + [b * 0 + 1], b, L)
        if neg:
            zinv = s_inv(poly_shift([b * 0, b * 0 + 1], b, L))
            for e, c in neg:
                pw = zinv.copy()
                for _ in range(e - 1):
                    pw = s_mul(pw, zinv)
                h = h + c * pw
        return s_mul(h, s_inv(self.x_series(b, L)))


def _branchpoint_poly(Np, Dp, eta, u_exp):
    """Coefficients of the numerator of X'/X (polynomial whose roots are the
    ramification points)."""
    z = np.array([0, 1], dtype=complex)
    Npd = np.polyder(np.poly1d(Np[::-1])).c[::-1] if len(Np) > 1 else np.array([0j])
    Dpd = np.polyder(np.poly1d(Dp[::-1])).c[::-1] if len(Dp) > 1 else np.array([0j])
    P = np.convolve(np.convolve(z, Npd), Dp)
    P = poly_sub(P, np.convolve(Np, Dp))
    P = poly_sub(P, np.convolve(np.convolve(z, Np), Dpd))
    if eta is not None and len(eta) > 1:
        ed = np.polyder(np.poly1d(eta[::-1])).c[::-1]
        P = poly_sub(P, -u_exp * np.convolve(np.convolve(z, ed),
                                             np.convolve(Np, Dp)))
    while len(P) > 1 and abs(P[-1]) < 1e-300:
        P = P[:-1]
    return P


def instantiate_curve(sd: SpectralData, t_value: complex, tol: float = 1e-9,
                      max_depth: int = 64, t_cap: float = 0.5) -> NumericCurve:
    """Evaluate the solved blocks at a complex t and locate the branchpoints.

    Raises AssumptionViolation when the configuration breaks the simple-
    ramification requirements (collisions, vanishing dY, points at zero).
    """
    t = complex(t_value)
    if abs(t) > t_cap:
        raise RingUsageError(f"|t| = {abs(t)} exceeds the configured cap {t_cap}")
    params = sd.params
    one = np.array([1 + 0j])
    Np, Dp = one, one
    tail = 0.0
    for c in sd.colors:
        arr = _zl_to_poly(sd.A[c.label], t)
        tail = max(tail, _tail_ratio(sd.A[c.label], t))
        block = arr
        for _ in range(c.mult - 1):
            block = np.convolve(block, arr)
        if c.side > 0:
            Np = np.convolve(Np, block)
        else:
            Dp = np.convolve(Dp, block)
    _, _, Hzl = assemble_curve(sd)
    H = Hzl.eval_at_t(t)
    eta = _zl_to_poly(sd.eta, t) if params.has_exp else None
    u_exp = complex(params.u_exp) if params.has_exp else None

    P = _branchpoint_poly(Np, Dp, eta, u_exp)
    expected = (len([c for c in sd.colors if not is_zero(c.u)])
                + (1 if params.has_exp else 0)) * params.D2
    if len(P) - 1 != expected:
        raise AssumptionViolation(
            "root-count", f"degree {len(P) - 1}, expected {expected}")
    # companion-matrix roots, then one Newton step on P
    dP = np.arange(1, len(P)) * P[1:]
    bps = []
    for z0 in np.roots(P[::-1]):
        z0 = complex(z0)
        d = horner(dP, z0)
        if abs(d) > 0:
            z0 = z0 - horner(P, z0) / d
        bps.append(complex(z0))
    bps.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))

    curve = NumericCurve(t=t, Np=Np, Dp=Dp, H=H, eta=eta, u_exp=u_exp,
                         branchpoints=bps, tol=tol, max_depth=max_depth,
                         p_weights={k + 1: complex(pv)
                                    for k, pv in enumerate(params.p)})
    curve.health["truncation_tail"] = tail
    if len(bps) > 1:
        scale = max(abs(b) for b in bps)
        curve.health["branchpoint_separation"] = min(
            abs(bps[i] - bps[j]) for i in range(len(bps))
            for j in range(i + 1, len(bps))) / scale
    _validate_branchpoints(curve)
    return curve


def alpha0_curve(params: ModelParams, t_value: complex, tol: float = 1e-9,
                 max_depth: int = 64) -> NumericCurve:
    """Curve built directly from the closed-form blocks of the no-internal-
    face specialisation: each numerator block is 1 + u_c Q(t z), the common
    Laurent block is Q(t z).  Independent construction path used to
    cross-check instantiate_curve."""
    t = complex(t_value)
    Qt = np.array([0] + [complex(params.q[k - 1]) * t ** k
                         for k in range(1, params.D2 + 1)], dtype=complex)
    one = np.array([1.0 + 0j])
    Np, Dp = one, one
    for c, u in enumerate(params.u):
        block = Qt * complex(u)
        block[0] += 1.0
        if c < params.m:
            Np = np.convolve(Np, block)
        else:
            Dp = np.convolve(Dp, block)
    H = {k: complex(params.q[k - 1]) * t ** k for k in range(1, params.D2 + 1)}
    eta = Qt if params.has_exp else None
    u_exp = complex(params.u_exp) if params.has_exp else None
    P = _branchpoint_poly(Np, Dp, eta, u_exp)
    roots = [complex(z) for z in np.roots(P[::-1])]
    roots.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    curve = NumericCurve(t=t, Np=Np, Dp=Dp, H=H, eta=eta, u_exp=u_exp,
                         branchpoints=roots, tol=tol, max_depth=max_depth)
    _validate_branchpoints(curve)
    return curve


def _zl_to_poly(zl, t):
    """Coefficients of a nonnegative-window block at a numeric t."""
    vals = zl.eval_at_t(t)
    out = np.zeros(max(vals, default=0) + 1, dtype=complex)
    for e, v in vals.items():
        out[e] = v
    return out


def _tail_ratio(zl, t):
    """Last-term heuristic: weight of the order-T coefficient in the value.
    Series that terminate below the truncation order carry no tail."""
    worst = 0.0
    for e, ts in zl.coeffs.items():
        total = complex(ts.eval_t(t))
        cT = ts.coeffs[ts.order]
        if not is_zero(cT):
            last = complex(cT) * t ** ts.order
            worst = max(worst, abs(last) / max(abs(total), abs(last), 1e-300))
    return worst


def _validate_branchpoints(curve: NumericCurve):
    bps = curve.branchpoints
    if not bps:
        raise AssumptionViolation("root-count", "no ramification points")
    scale = max(abs(b) for b in bps)
    for i, b in enumerate(bps):
        if abs(b) < 1e-10 * scale:
            raise AssumptionViolation("zero-root", f"ramification point at {b}")
        xs = curve.x_series(b, 4)
        # dimensionless local ratios; the raw derivatives scale like powers
        # of 1/b and would make absolute thresholds meaningless
        x0 = max(abs(xs[0]), 1e-300)
        if abs(xs[1] * b) > 1e-6 * x0:
            raise AssumptionViolation(
                "not-critical", f"dX does not vanish at {b}")
        if abs(xs[2] * b * b) < 1e-9 * x0:
            raise AssumptionViolation(
                "not-simple", f"second derivative vanishes at {b}")
        ys = curve.y_series(b, 3)
        if abs(ys[1] * b) < 1e-10 * max(abs(ys[0]), 1e-300):
            raise AssumptionViolation("dY-zero", f"dY vanishes at {b}")
    for i in range(len(bps)):
        for j in range(i + 1, len(bps)):
            if abs(bps[i] - bps[j]) < 1e-8 * scale:
                raise AssumptionViolation(
                    "distinct-roots", f"branchpoints {i}, {j} collide")


# ---------------------------------------------------------------------------
# local data at a branchpoint


@dataclass
class LocalData:
    index: int
    b: complex
    depth: int
    xs: np.ndarray            # X(b + w) Taylor coefficients
    ys: np.ndarray
    s: np.ndarray             # involution: sigma(b + w) = b + s(w)
    sp: np.ndarray            # s'(w)
    involution_coeffs: np.ndarray   # beta_k with s = -w (1 + sum beta_k w^k)
    y_odd_coeffs: np.ndarray        # t_k with Y - Y o s = 2 Y'(b)(w + sum t_k w^k)
    kernel_den: np.ndarray          # (Y - Y o s) * X'
    checks: dict


def local_data(curve: NumericCurve, i: int, depth: int) -> LocalData:
    """Local involution and kernel data at one branchpoint, to the requested
    expansion depth, with residual checks recorded."""
    if depth > curve.max_depth:
        raise RingUsageError("depth exceeds the curve's series budget")
    key = (i, depth)
    if key in curve._local:
        return curve._local[key]
    L = depth
    b = curve.branchpoints[i]
    xs = curve.x_series(b, L + 2)
    ys = curve.y_series(b, L + 2)
    phi = xs.copy()
    phi[0] = 0.0
    phi[1] = 0.0                      # dX(b) = 0 within tolerance
    base = np.zeros(L, dtype=complex)
    base[:len(phi) - 2] = phi[2:]
    psi = np.zeros(L + 1, dtype=complex)
    psi[1:] = s_sqrt(base)[:L]        # psi = w sqrt(phi / w^2)
    psi = psi[:L]
    psi_inv = s_revert(psi)
    s = s_compose(psi_inv, -psi)
    sp = s_diff(s)

    ssq = s_compose(s, s)
    involution_residual = float(max(abs(v) for v in (ssq - wseries(L))))
    xcomp = s_compose(xs[:L], s)
    x_invariance = float(max(abs(v) for v in (xcomp - xs[:L])))

    # s = -w(1 + sum_{k>=1} beta_k w^k); store the parenthesised tail
    unit = -s[1:L]
    beta = unit.copy()
    beta[0] = 0.0

    ydiff = ys[:L] - s_compose(ys[:L], s)
    yp = ys[1]
    y_odd = ydiff / (2 * yp)
    kernel_den = s_mul(ydiff, s_diff(xs[:L + 1])[:L])
    dscale = max(1.0, float(abs(kernel_den[2])) if L > 2 else 1.0)
    if L > 2 and float(max(abs(kernel_den[0]), abs(kernel_den[1]))) > 1e-8 * dscale:
        raise AssumptionViolation(
            "kernel-degeneracy", f"kernel denominator not of order 2 at {b}")

    ld = LocalData(
        index=i, b=b, depth=depth, xs=xs[:L], ys=ys[:L], s=s, sp=sp,
        involution_coeffs=beta, y_odd_coeffs=y_odd, kernel_den=kernel_den,
        checks={"involution": involution_residual, "x_invariance": x_invariance})
    scale = max(1.0, float(max(abs(v) for v in xs[:L])))
    if involution_residual > 1e-7 or x_invariance > 1e-6 * scale:
        raise AssumptionViolation(
            "local-expansion", f"involution residuals too large at point {i}: "
            f"{involution_residual:.2e}, {x_invariance:.2e}")
    curve._local[key] = ld
    return ld


# ---------------------------------------------------------------------------
# the recursion


class OmegaSet:
    """Correlator differentials in pole-coefficient form: for each (g, n) a
    dict mapping ordered multi-indices ((i1,k1),...,(in,kn)) to complex
    coefficients of prod_j (z_j - b_{i_j})^(-k_j)."""

    def __init__(self, curve: NumericCurve):
        self.curve = curve
        self.tensors: dict = {}
        self.asymmetry: dict = {}
        self.quadrature: dict = {}
        self.condition: dict = {}

    def evaluate(self, g: int, n: int, zs, with_condition: bool = False):
        """Value of the correlator at a point; optionally also the ratio of
        absolute term sum to the value (pole sums cancel heavily at small z,
        and the value is meaningless once ratio * machine epsilon exceeds
        the tolerance)."""
        if (g, n) == (0, 2):
            val = 1.0 / (zs[0] - zs[1]) ** 2
            return (val, 1.0) if with_condition else val
        total = 0j
        mag = 0.0
        bps = self.curve.branchpoints
        for midx, coeff in self.tensors[(g, n)].items():
            term = coeff
            for (i, k), z in zip(midx, zs):
                term = term / (z - bps[i]) ** k
            total += term
            mag += abs(term)
        if with_condition:
            return total, float(mag) / max(float(abs(total)), 1e-300)
        return total

    def max_pole_order(self, g: int, n: int) -> int:
        return max((max(k for _, k in midx)
                    for midx in self.tensors[(g, n)]), default=0)

    def min_pole_order(self, g: int, n: int) -> int:
        return min((min(k for _, k in midx)
                    for midx in self.tensors[(g, n)]), default=0)

    def to_records(self):
        out = {}
        for (g, n), tensor in sorted(self.tensors.items()):
            out[f"{g},{n}"] = [
                {"multi_index": [list(p) for p in midx],
                 "coeff": [val.real, val.imag]}
                for midx, val in sorted(tensor.items())]
        return out


def _dependency_closure(targets):
    """The sub-correlators a set of (g, n) targets actually needs: the
    genus-lowering child and the stable splitting factors."""
    need = set()
    stack = [gn for gn in targets if 2 * gn[0] - 2 + gn[1] >= 1]
    while stack:
        g, n = stack.pop()
        if (g, n) in need:
            continue
        need.add((g, n))
        if (g - 1, n + 1) != (0, 2) and g >= 1:
            stack.append((g - 1, n + 1))
        for h in range(g + 1):
            for c in range(n):
                for gn in ((h, 1 + c), (g - h, n - c)):
                    if gn in ((0, 1), (0, 2), (g, n)):
                        continue
                    if 2 * gn[0] - 2 + gn[1] >= 1:
                        stack.append(gn)
    return need


def tr_compute(curve: NumericCurve, g_max: int, n_max: int,
               depth_margin: int = 4, quadrature_check: bool = False,
               targets=None) -> OmegaSet:
    """Run the residue recursion for every (g, n) with 2g - 2 + n between 1
    and the target level; output in pole-coefficient form with the structural
    bounds asserted at each step.  Passing explicit targets restricts the
    computation to their dependency closure."""
    chi_max = 2 * g_max - 2 + n_max
    if chi_max < 1:
        raise RingUsageError("need 2 g_max - 2 + n_max >= 1")
    needed = None
    if targets is not None:
        needed = _dependency_closure(targets)
        chi_max = max(2 * g - 2 + n for g, n in needed)
    omega = OmegaSet(curve)
    nb = len(curve.branchpoints)
    depth = 6 * g_max - 2 + 2 * (n_max + 2) + depth_margin
    locs = [local_data(curve, i, depth) for i in range(nb)]
    for chi in range(1, chi_max + 1):
        for g in range((chi + 1) // 2 + 1):
            n = chi + 2 - 2 * g
            if n < 1:
                continue
            if needed is not None and (g, n) not in needed:
                continue
            tensor, condition = _tr_step(omega, locs, g, n, depth)
            bound = 6 * g - 4 + 2 * n
            raw_max = max((max(k for _, k in m) for m in tensor), default=0)
            raw_min = min((min(k for _, k in m) for m in tensor), default=2)
            if raw_max > bound or raw_min < 2:
                raise RingUsageError(
                    f"pole order outside [2, {bound}] at (g,n)=({g},{n})")
            sym, asym = _symmetrize(tensor, n)
            omega.tensors[(g, n)] = sym
            omega.asymmetry[(g, n)] = float(asym)
            # residue-extraction amplification: the output coefficients keep
            # about 16 - log10(condition) correct digits
            omega.condition[(g, n)] = float(condition)
    if quadrature_check:
        omega.quadrature = {
            (g, n): residue_quadrature_check(omega, locs, g, n)
            for (g, n) in omega.tensors if (g, n) in ((0, 3), (1, 1))}
    return omega


def _pole_series(loc: LocalData, bps, j, k, at_sigma: bool, L):
    """1/(slot - b_j)^k expanded at slot = b_i + w (or b_i + s(w))."""
    if j == loc.index:
        if at_sigma:
            # s = -w(1 + ...): factor out the leading power exactly
            inv = s_inv(-loc.s[1:L])
            pw = inv
            for _ in range(k - 1):
                pw = s_mul(pw, inv)
            return (-k, (-1.0) ** k * pw)
        arr = np.zeros(L, dtype=complex)
        arr[0] = 1.0
        return (-k, arr)
    delta = loc.b - bps[j]
    base = loc.s.copy() if at_sigma else wseries(L)
    base[0] += delta
    inv = s_inv(base)
    pw = inv
    for _ in range(k - 1):
        pw = s_mul(pw, inv)
    return (0, pw)


def _tr_step(omega: OmegaSet, locs, g, n, depth):
    curve = omega.curve
    bps = curve.branchpoints
    L = depth
    out: dict = {}
    absout: dict = {}
    for loc in locs:
        E: dict = {}

        def add_term(key, lau):
            if key in E:
                E[key] = l_add(E[key], lau)
            else:
                E[key] = lau

        sp_l = (0, loc.sp)

        # bracket part 1: the genus-lowering term
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                diff = wseries(L) - loc.s
                val = s_mul(loc.sp, s_inv(s_mul(diff[1:], diff[1:])))
                add_term((), (-2, val))
            else:
                sub = omega.tensors[(g - 1, n + 1)]
                for midx, coeff in sub.items():
                    f1 = _pole_series(loc, bps, midx[0][0], midx[0][1], False, L)
                    f2 = _pole_series(loc, bps, midx[1][0], midx[1][1], True, L)
                    lau = l_mul(l_mul(f1, f2, L), sp_l, L)
                    lau = (lau[0], lau[1] * coeff)
                    add_term(tuple(midx[2:]), lau)

        # bracket part 2: stable splittings (the two one-point terms excluded)
        slots = list(range(n - 1))
        for h in range(g + 1):
            hp = g - h
            for csize in range(len(slots) + 1):
                for C in combinations(slots, csize):
                    Cp = [s for s in slots if s not in C]
                    if h == 0 and len(C) == 0:
                        continue
                    if h == g and len(Cp) == 0:
                        continue
                    fac1 = _factor_terms(omega, loc, bps, h, C, False, L)
                    fac2 = _factor_terms(omega, loc, bps, hp, Cp, True, L)
                    if fac1 is None or fac2 is None:
                        continue
                    for key1, lau1 in fac1:
                        for key2, lau2 in fac2:
                            key = [None] * (n - 1)
                            for s_, pr in zip(C, key1):
                                key[s_] = pr
                            for s_, pr in zip(Cp, key2):
                                key[s_] = pr
                            lau = l_mul(l_mul(lau1, lau2, L), sp_l, L)
                            add_term(tuple(key), lau)

        # kernel coefficients and residues
        den = loc.kernel_den            # starts at w^2
        den_l = (-2, s_inv(den[2:2 + L]))
        spow = [np.array([1.0 + 0j])]
        for _ in range(6 * g - 2 + 2 * n + 4):
            spow.append(s_mul(np.pad(spow[-1], (0, max(0, L - len(spow[-1])))),
                              loc.s)[:L])
        for key, lau in E.items():
            low = l_low(lau)
            if low is None:
                continue
            # (w^k - s^k)/den starts at w^(k-2); residue needs k - 2 + low <= -1
            kmax = 1 - low
            if kmax >= len(spow):
                raise RingUsageError(
                    f"pole depth overflow in recursion step (g,n)=({g},{n})")
            for k in range(1, kmax + 1):
                wk = np.zeros(L, dtype=complex)
                if k < L:
                    wk[k] = 1.0
                num = wk - spow[k][:L]
                ck = l_mul((0, 0.5 * num), den_l, L)
                val, mag = l_coeff_product(ck, lau, -1)
                midx = ((loc.index, k + 1),) + key
                absout[midx] = absout.get(midx, 0.0) + mag
                if abs(val) > 0:
                    out[midx] = out.get(midx, 0j) + val
    # drop numerically-zero entries
    scale = max((abs(v) for v in out.values()), default=1.0)
    kept = {k: v for k, v in out.items() if abs(v) > 1e-13 * scale}
    condition = 1.0
    for k, v in kept.items():
        condition = max(condition, absout.get(k, 0.0) / max(abs(v), 1e-300))
    return kept, condition


def _factor_terms(omega: OmegaSet, loc, bps, h, C, at_sigma, L):
    """Terms of one splitting factor with its first slot at w or s(w): list of
    (spectator key, Laurent).  The special two-point case produces the basis
    expansion in the spectator variable."""
    k1 = 1 + len(C)
    if (h, k1) == (0, 1):
        return None
    if (h, k1) == (0, 2):
        # 1/(slot - z_c)^2 at slot = b_i + base(w) expands in the spectator
        # pole basis: sum_k (k+1) base^k / (z_c - b_i)^(k+2)
        base = loc.s if at_sigma else wseries(L)
        out = []
        pw = np.zeros(L, dtype=complex)
        pw[0] = 1.0
        for k in range(L - 1):
            out.append((((loc.index, k + 2),), (0, (k + 1) * pw.copy())))
            pw = s_mul(pw, base)
            if not np.any(pw):
                break
        return out
    tensor = omega.tensors.get((h, k1))
    if tensor is None:
        return None
    out = []
    for midx, coeff in tensor.items():
        f = _pole_series(loc, bps, midx[0][0], midx[0][1], at_sigma, L)
        f = (f[0], f[1] * coeff)
        out.append((tuple(midx[1:]), f))
    return out


def _symmetrize(tensor: dict, n: int):
    sym: dict = {}
    for midx, val in tensor.items():
        for perm in permutations(range(n)):
            key = tuple(midx[i] for i in perm)
            sym[key] = sym.get(key, 0j) + val
    fact = 1.0
    for k in range(2, n + 1):
        fact *= k
    sym = {k: v / fact for k, v in sym.items()}
    worst = 0.0
    scale = max((abs(v) for v in sym.values()), default=1.0)
    for midx, val in tensor.items():
        worst = max(worst, abs(val - sym[midx]) / scale)
    sym = {k: v for k, v in sym.items() if abs(v) > 1e-13 * scale}
    return sym, worst


# ---------------------------------------------------------------------------
# quadrature double-check and oracle comparison


def residue_quadrature_check(omega: OmegaSet, locs, g, n, n_points: int = 400):
    """Contour-trapezoid recomputation of one recursion step at sample
    spectator points, against the pole-coefficient result.  Covers the
    three-holed sphere and the one-holed torus."""
    curve = omega.curve
    bps = curve.branchpoints
    rng = np.random.default_rng(7)
    scale = max(abs(b) for b in bps)
    zs = [scale * (2.5 + 0.5 * k) * np.exp(2j * np.pi * rng.random())
          for k in range(n)]
    worst = 0.0
    for radii_scale in (0.05, 0.08):
        total = 0j
        for loc in locs:
            rho = radii_scale * min(
                [abs(loc.b - b) for b in bps if b != loc.b] + [abs(loc.b)])
            thetas = np.linspace(0, 2 * np.pi, n_points, endpoint=False)
            acc = 0j
            for th in thetas:
                w = rho * np.exp(1j * th)
                z = loc.b + w
                sig = loc.b + horner(loc.s, w)
                spw = horner(loc.sp, w)
                K = _kernel_value(curve, loc, zs[0], z, sig)
                if (g, n) == (0, 3):
                    # the two orderings of omega_{0,2}(z, z_a) omega_{0,2}(sig, z_b)
                    br = (1.0 / (z - zs[1]) ** 2 * (1.0 / (sig - zs[2]) ** 2) * spw
                          + 1.0 / (z - zs[2]) ** 2 * (1.0 / (sig - zs[1]) ** 2) * spw)
                else:
                    br = spw / (z - sig) ** 2
                acc += K * br * (1j * w)
            total += acc * (2 * np.pi / n_points) / (2j * np.pi)
        direct = omega.evaluate(g, n, zs)
        worst = max(worst, abs(total - direct) / max(abs(direct), 1e-300))
    return worst


def _kernel_value(curve: NumericCurve, loc: LocalData, z1, z, sig):
    num = 1.0 / (z1 - z) - 1.0 / (z1 - sig)
    w = z - loc.b
    den = horner(loc.kernel_den, w)
    return 0.5 * num / den


def evaluate_oracle_wgn(series: TSeries, t: complex, xbars,
                        with_tail: bool = False):
    """Numeric value of an enumerated correlator series at given 1/x values;
    optionally also the weight of the top retained order in the value (the
    last-term truncation heuristic)."""
    vals = {}
    for j, xb in enumerate(xbars):
        vals[f"xb{j + 1}"] = xb
    total = 0j
    top = 0j
    for d in range(series.order, -1, -1):
        c = series.coeffs[d]
        v = c.eval(vals) if isinstance(c, MPoly) else c
        if d == series.order:
            top = complex(v) * t ** d
        total = total * t + complex(v)
    if with_tail:
        tail = abs(top) / max(abs(total), abs(top), 1e-300)
        return total, tail
    return total


def compare_oracle(omega: OmegaSet, oracles: dict, curve: NumericCurve,
                   samples: dict, tol: float) -> dict:
    """Evaluate the recursion output against the enumerated correlators.

    oracles: {(g, n): TSeries in xb1..xbn}; samples: {(g, n): list of z-tuples}.
    The disk and cylinder cases are exact theorems (deviation is truncation
    only); higher cases are the recursion's own prediction.
    """
    report = {"t": [curve.t.real, curve.t.imag], "tol": tol, "cases": {}}
    curve_budget = curve.health.get("truncation_tail", 0.0) * 10
    overall = True
    for (g, n), pts in sorted(samples.items()):
        if (g, n) not in ((0, 1), (0, 2)) and all(
                (c.is_zero() if isinstance(c, MPoly) else c == 0)
                for c in oracles[(g, n)].coeffs):
            report["cases"][f"{g},{n}"] = {
                "skipped": "oracle series vanishes on the enumerated window"}
            continue
        devs = []
        tails = []
        floors = []
        for zs in pts:
            _guard_samples(curve, zs)
            xs = [curve.X(z) for z in zs]
            xps = [curve.Xp(z) for z in zs]
            if (g, n) == (0, 1):
                tr_val = curve.Y(zs[0]) * xps[0]
                base, tail = evaluate_oracle_wgn(oracles[(0, 1)], curve.t,
                                                 [1.0 / xs[0]], with_tail=True)
                shift = sum(pk * xs[0] ** (k - 1)
                            for k, pk in curve.p_weights.items())
                or_val = (base + shift) * xps[0]
            elif (g, n) == (0, 2):
                tr_val = 1.0 / (zs[0] - zs[1]) ** 2
                base, tail = evaluate_oracle_wgn(oracles[(0, 2)], curve.t,
                                                 [1.0 / xs[0], 1.0 / xs[1]],
                                                 with_tail=True)
                or_val = (base * xps[0] * xps[1]
                          + xps[0] * xps[1] / (xs[0] - xs[1]) ** 2)
            else:
                tr_val, cond = omega.evaluate(g, n, zs, with_condition=True)
                floors.append(float(cond) * 2.3e-16)
                base, tail = evaluate_oracle_wgn(oracles[(g, n)], curve.t,
                                                 [1.0 / x for x in xs],
                                                 with_tail=True)
                for xp in xps:
                    base = base * xp
                or_val = base
            dev = abs(tr_val - or_val) / max(abs(tr_val), abs(or_val), 1e-300)
            devs.append(dev)
            tails.append(tail)
        budget = curve_budget + 10 * max(tails)
        ok = max(devs) <= tol + budget
        overall = overall and ok
        report["cases"][f"{g},{n}"] = {
            "deviations": devs, "max": max(devs),
            "truncation_budget": budget,
            "float_floor": max(floors, default=0.0), "pass": bool(ok)}
    report["pass"] = bool(overall)
    return report


def _guard_samples(curve: NumericCurve, zs):
    scale = max(abs(b) for b in curve.branchpoints)
    for z in zs:
        for b in curve.branchpoints:
            if abs(z - b) < 0.05 * scale:
                raise RingUsageError(f"sample {z} too close to branchpoint {b}")
