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
from functools import cached_property
from itertools import combinations, permutations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dense import (
    horner, poly_shift, poly_sub, s_compose, s_diff, s_exp, s_inv, s_mul,
    s_revert, s_sqrt, wseries,
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

# largest |t| at which the truncated blocks are instantiated (the run
# configuration rejects larger t_value at load time)
T_CAP = 0.5


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

    def xy_series(self, b: complex, L: int):
        """Taylor coefficients of X(b + w) and Y(b + w)."""
        xs = self.x_series(b, L)
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
        return xs, s_mul(h, s_inv(xs))


def _branchpoint_poly(Np, Dp, eta, u_exp):
    """Coefficients of R = (zN')D - N(zD') - ND + u_exp (z eta') N D, the
    numerator of zX'/X, whose roots are the ramification points; zP' is
    the coefficient list scaled by its exponents."""
    ND = np.convolve(Np, Dp)
    P = poly_sub(np.convolve(np.arange(len(Np)) * Np, Dp), ND)
    P = poly_sub(P, np.convolve(Np, np.arange(len(Dp)) * Dp))
    if eta is not None:
        P = poly_sub(P, -u_exp * np.convolve(np.arange(len(eta)) * eta, ND))
    while len(P) > 1 and abs(P[-1]) < 1e-300:
        P = P[:-1]
    return P


def instantiate_curve(sd: SpectralData, t_value: complex, tol: float = 1e-9,
                      max_depth: int = 64, t_cap: float = T_CAP) -> NumericCurve:
    """Evaluate the solved blocks at a complex t and locate the branchpoints.

    Raises AssumptionViolation when the configuration breaks the simple-
    ramification requirements (collisions, vanishing dY, points at zero, X
    vanishing at a ramification point).
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
        # a multiple root of the numerator product: X(b) = 0, and Y = H/X
        # has no Taylor series at b
        if abs(horner(curve.Np, b)) <= 1e-10 * horner(np.abs(curve.Np), abs(b)):
            raise AssumptionViolation("X-zero", f"X vanishes at {b}")
        xs, ys = curve.xy_series(b, 4)
        # dimensionless local ratios; the raw derivatives scale like powers
        # of 1/b and would make absolute thresholds meaningless
        x0 = max(abs(xs[0]), 1e-300)
        if abs(xs[1] * b) > 1e-6 * x0:
            raise AssumptionViolation(
                "not-critical", f"dX does not vanish at {b}")
        if abs(xs[2] * b * b) < 1e-9 * x0:
            raise AssumptionViolation(
                "not-simple", f"second derivative vanishes at {b}")
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
    xs, ys = curve.xy_series(b, L + 2)
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
    """Correlator differentials in pole-coefficient form.  Each is symmetric
    in its n points, so for each (g, n) `tensors` maps only the sorted
    multi-indices ((i1,k1) <= ... <= (in,kn)) to the complex coefficient
    that every ordering of it carries, of prod_j (z_j - b_{i_j})^(-k_j).
    `evaluate` and `to_records` expand the orderings when they run."""

    def __init__(self, curve: NumericCurve):
        self.curve = curve
        self.tensors: dict = {}
        self.asymmetry: dict = {}
        self.quadrature: dict = {}
        self.condition: dict = {}
        self._expanded: dict = {}     # (g, n) -> (tensor, poles, src, coeff, groups)

    def _expansion(self, g: int, n: int):
        """Every ordering of the stored multi-indices of (g, n), as
        `_orderings` gives them, with each ordering's coefficient, and a
        cache for `evaluate`; kept while the tensor stays the same object."""
        tensor = self.tensors[(g, n)]
        hit = self._expanded.get((g, n))
        if hit is None or hit[0] is not tensor:
            poles, coeff = _coo(tensor, n)
            poles, src = _orderings(poles)
            hit = self._expanded[(g, n)] = (tensor, poles, src, coeff[src], {})
        return hit[1:]

    def evaluate(self, g: int, n: int, zs, with_condition: bool = False,
                 tables=None):
        """Value of the correlator at a point, or at arrays of points of one
        shape; optionally also the ratio of absolute term sum to the value
        (pole sums cancel heavily at small z, and the value is meaningless
        once ratio * machine epsilon exceeds the tolerance).  `tables`, if
        given, holds the `_pole_powers` table of each point to an order at
        least this correlator's, so that calls at the same points share
        them."""
        if (g, n) == (0, 2):
            val = 1.0 / (zs[0] - zs[1]) ** 2
            return (val, 1.0) if with_condition else val
        poles, _, terms, groups = self._expansion(g, n)
        bps = np.asarray(self.curve.branchpoints)
        kmax = int(poles[..., 1].max(initial=1))
        width = len(bps) * kmax
        index = poles[..., 0] * kmax + poles[..., 1] - 1     # (entry, slot)

        def powers(s):
            table = tables[s] if tables else _pole_powers(zs[s], bps, kmax)
            table = table[..., :kmax]
            return table.reshape(table.shape[:-2] + (width,))
        arrays = [s for s, z in enumerate(zs) if np.ndim(z)]
        for s in range(len(zs)):
            if s not in arrays:
                terms = terms / powers(s)[index[:, s]]
        mag = np.abs(terms) if with_condition else None
        if arrays:
            # entries with equal poles at every array point share their
            # powers there: sum them first
            place = width ** np.arange(len(arrays))
            if tuple(arrays) not in groups:
                groups[tuple(arrays)] = np.unique(index[:, arrays] @ place,
                                                  return_inverse=True)
            keys, group = groups[tuple(arrays)]

            def gsum(v):
                return np.bincount(group, v, len(keys))
            terms = gsum(terms.real) + 1j * gsum(terms.imag)
            mag = gsum(mag) if with_condition else None
            for s, pl in zip(arrays, place):
                p = 1.0 / np.take(powers(s), keys // pl % width, axis=-1)
                terms = terms * p
                mag = mag * np.abs(p) if with_condition else None
        total = terms.sum(axis=-1)
        if with_condition:
            return total, mag.sum(axis=-1) / np.maximum(np.abs(total), 1e-300)
        return total

    def max_pole_order(self, g: int, n: int) -> int:
        return int(self._expansion(g, n)[0][..., 1].max(initial=0))

    def min_pole_order(self, g: int, n: int) -> int:
        return min((min(k for _, k in midx)
                    for midx in self.tensors[(g, n)]), default=0)

    def to_records(self):
        """Every ordering of every multi-index, ordered by multi-index."""
        out = {}
        for (g, n), tensor in sorted(self.tensors.items()):
            poles, src, _, _ = self._expansion(g, n)
            vals = list(tensor.values())
            out[f"{g},{n}"] = [
                {"multi_index": midx, "coeff": [vals[e].real, vals[e].imag]}
                for midx, e in sorted(zip(poles.tolist(), src.tolist()))]
        return out


def _pole_powers(z, bps, kmax: int):
    """(z - b_j)^k for every branchpoint j and order k <= kmax, with the
    shape of z followed by (branchpoint, order)."""
    return (np.asarray(z)[..., None, None] - bps[:, None]) ** np.arange(1, kmax + 1)


def _coo(tensor: dict, n: int):
    """A tensor as arrays: poles[e, slot] = (branchpoint, order) of entry e,
    and the entries' coefficients."""
    poles = np.array(list(tensor), dtype=np.int64).reshape(-1, n, 2)
    return poles, np.array(list(tensor.values()), dtype=complex)


def _orderings(poles):
    """Every distinct ordering of each sorted multi-index in poles (M, n, 2):
    the permuted poles and the row each comes from.  Equal poles keep their
    sorted order, so that each ordering occurs once."""
    n = poles.shape[1]
    same = (poles[:, 1:] == poles[:, :-1]).all(axis=2)
    out, src = [], []
    for perm in permutations(range(n)):
        slot = np.argsort(perm)
        rows = np.flatnonzero(~(same & (slot[:-1] > slot[1:])).any(axis=1))
        out.append(poles[rows][:, perm])
        src.append(rows)
    return np.concatenate(out), np.concatenate(src)


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
    """Run the residue recursion on the dependency closure of the targets,
    by default the box g <= g_max, n <= n_max; output in pole-coefficient
    form with the structural bounds asserted at each step.  g_max and n_max
    also fix the local expansion depth.  With quadrature_check, every
    computed (g, n) is recomputed by contour quadrature."""
    if 2 * g_max - 2 + n_max < 1:
        raise RingUsageError("need 2 g_max - 2 + n_max >= 1")
    if targets is None:
        targets = [(g, n) for g in range(g_max + 1) for n in range(1, n_max + 1)]
    steps = sorted(_dependency_closure(targets),
                   key=lambda gn: (2 * gn[0] + gn[1], gn[0]))
    omega = OmegaSet(curve)
    nb = len(curve.branchpoints)
    depth = 6 * g_max - 2 + 2 * (n_max + 2) + depth_margin
    locs = [local_data(curve, i, depth) for i in range(nb)]
    ops = [_BranchOperators(loc, curve.branchpoints) for loc in locs]
    kc = ops[0].kc
    rho = max(abs(b) for b in curve.branchpoints)
    lower: dict = {}
    for g, n in steps:
        first, spect, vals, mags = (
            np.concatenate(part) for part in zip(*(op.residues(lower, g, n)
                                                   for op in ops)))
        orders = np.concatenate([first[:, None], spect], axis=1) % kc
        keep = _nonzero(orders.sum(axis=1), vals, rho)
        first, spect, vals, mags = first[keep], spect[keep], vals[keep], mags[keep]
        bound = 6 * g - 4 + 2 * n
        orders = orders[keep]
        if orders.size and (orders.max() > bound or orders.min() < 2):
            raise RingUsageError(
                f"pole order outside [2, {bound}] at (g,n)=({g},{n})")
        codes, coeff, asym = _symmetrize(first, spect, vals, rho, kc)
        j, k = np.divmod(codes, kc)
        omega.tensors[(g, n)] = {
            tuple(zip(jr, kr)): complex(v)
            for jr, kr, v in zip(j.tolist(), k.tolist(), coeff)}
        omega.asymmetry[(g, n)] = asym
        # residue-extraction amplification: the output coefficients keep
        # about 16 - log10(condition) correct digits
        omega.condition[(g, n)] = float(
            max(1.0, (mags / np.abs(vals)).max(initial=1.0)))
        lower[(g, n)] = _SortedTensor(codes, coeff)
    if quadrature_check:
        omega.quadrature = {(g, n): residue_quadrature_check(omega, locs, g, n)
                            for (g, n) in omega.tensors}
    return omega


class _SortedTensor:
    """A symmetric tensor on its sorted multi-indices, as pole codes
    j * kc + k ascending along each row, with the rows the recursion bracket
    reads from it, built on first use.  A row fixes the first slot (or the
    first two) and keeps the other slots sorted, once per distinct choice;
    its coefficient is divided by the number of orderings of those other
    slots, which the bracket multiplies back per spectator key."""

    def __init__(self, codes, coeff):
        self.codes, self.coeff = codes, coeff

    @cached_property
    def first(self):
        head, rest, src = _peel(self.codes)
        return head, rest, self.coeff[src] / _stab(rest)

    @cached_property
    def first_two(self):
        a, rest, src = _peel(self.codes)
        b, rest, src2 = _peel(rest)
        return a[src2], b, rest, self.coeff[src[src2]] / _stab(rest)


def _peel(codes):
    """Each distinct value of each sorted row as a head, with the row's
    other values (still sorted) and the row's index."""
    heads, rests, srcs = [], [], []
    for p in range(codes.shape[1]):
        src = (np.arange(len(codes)) if p == 0
               else np.flatnonzero(codes[:, p] != codes[:, p - 1]))
        heads.append(codes[src, p])
        rests.append(np.delete(codes[src], p, axis=1))
        srcs.append(src)
    return np.concatenate(heads), np.concatenate(rests), np.concatenate(srcs)


def _stab(codes):
    """Number of orderings of each sorted row that leave it unchanged: the
    product of the factorials of its multiplicities."""
    run = np.ones(len(codes))
    stab = np.ones(len(codes))
    for p in range(1, codes.shape[1]):
        run = np.where(codes[:, p] == codes[:, p - 1], run + 1, 1)
        stab *= run
    return stab


class _BranchOperators:
    """The operators of the recursion at one branchpoint b_i, in the local
    coordinate z = b_i + w, for local data of depth L.  Laurent series are
    arrays over the exponents -Q..Q, Q = L - 2 (column Q holds w^0); no step
    reads past exponent Q.  Poles (j, k) are coded j * kc + k, kc = Q + 3,
    above every pole order a step can reach.

    u: the first bracket slot at z: rows j * Q + k - 1 hold the pole
       1/(z - b_j)^k (k = 1..Q), rows nb * Q + m the omega_{0,2} expansion
       row (m + 1) w^m, whose spectator is the pole (i, m + 2), and the last
       row the unit w^0.
    v: the same basis at sigma(z) = b_i + s(w), times s'(w); the last row is
       omega_{0,2}(z, sigma(z)) s'(w) = s'(w) / (w - s(w))^2, so that its
       pair with the unit is the omega_{0,2} bracket term.
    kernel[k - 1, x + 1] = [w^x] (w^k - s(w)^k) / (2 kernel_den(w)), the
       residue weight of the output pole (i, k + 1), for x = -1..Q-1.
    """

    def __init__(self, loc: LocalData, bps):
        L = loc.depth
        Q = L - 2
        nb = len(bps)
        i, s = loc.index, loc.s
        self.index, self.nb, self.Q, self.kc = i, nb, Q, Q + 3
        u = np.zeros((nb * Q + Q + 2, 2 * Q + 1), dtype=complex)
        v = np.zeros_like(u)
        for j, bj in enumerate(bps):
            if j == i:
                # s = -w (1 + ...): s^(-k) = (-w)^(-k) unit^k exactly
                unit = s_inv(-s[1:L])
                pw = unit
                for k in range(1, Q + 1):
                    u[j * Q + k - 1, Q - k] = 1.0
                    v[j * Q + k - 1, Q - k:2 * Q - k + 1] = (-1.0) ** k * pw
                    pw = s_mul(pw, unit)
                continue
            base_w = wseries(Q + 1)
            base_w[0] += loc.b - bj
            base_s = s[:Q + 1].copy()
            base_s[0] += loc.b - bj
            inv_w, inv_s = s_inv(base_w), s_inv(base_s)
            pw_w, pw_s = inv_w, inv_s
            for k in range(1, Q + 1):
                u[j * Q + k - 1, Q:] = pw_w
                v[j * Q + k - 1, Q:] = pw_s
                pw_w, pw_s = s_mul(pw_w, inv_w), s_mul(pw_s, inv_s)
        spow = np.zeros(Q + 1, dtype=complex)
        spow[0] = 1.0
        for m in range(Q + 1):
            u[nb * Q + m, Q + m] = m + 1
            v[nb * Q + m, Q:] = (m + 1) * spow
            spow = s_mul(spow, s[:Q + 1])
        u[-1, Q] = 1.0
        # times s'(w): a lower-triangular Toeplitz matrix over the exponents
        lag = np.subtract.outer(np.arange(2 * Q + 1), np.arange(2 * Q + 1))
        sp = loc.sp[np.clip(lag, 0, Q)]
        self.u = u
        self.v = np.einsum('ry,xy->rx', v, np.where((lag >= 0) & (lag <= Q), sp, 0))
        diff = wseries(L) - s
        w02 = s_mul(loc.sp[:L - 1], s_inv(s_mul(diff[1:], diff[1:])))
        self.v[-1, Q - 2:2 * Q - 1] = w02
        den_inv = s_inv(loc.kernel_den[2:L])
        self.kernel = np.zeros((Q + 1, Q + 1), dtype=complex)
        spow = np.zeros(L, dtype=complex)
        spow[0] = 1.0
        for k in range(1, Q + 2):
            spow = s_mul(spow, s)
            num = -spow
            num[k] += 1.0
            self.kernel[k - 1] = 0.5 * np.convolve(num, den_inv)[1:Q + 2]

    def residues(self, lower: dict, g: int, n: int):
        """This branchpoint's share of the step (g, n), one entry per output
        pole (i, k) and sorted spectator key with a nonzero value: the code
        of (i, k), the spectator codes, the value, and the sum of the
        absolute values of the terms that make up the value."""
        i, nb, Q, kc = self.index, self.nb, self.Q, self.kc
        terms = _bracket_terms(g, n)

        def own(codes):
            return np.where(codes // kc == i, codes % kc, 0)

        # the deepest pole order among first slots fixes the basis size; the
        # lowest exponent any bracket term reaches fixes the window [-P, 0]
        kst, P = 1, 0
        for term in terms:
            if term == "w02":
                P = max(P, 2)
                continue
            gns = [gn for gn in term[1:] if gn != (0, 2)]
            for gn in gns:
                kst = max(kst, int((lower[gn].codes % kc).max(initial=0)))
            if term[0] == "lower":
                a, b, _, _ = lower[term[1]].first_two
                P = max(P, int((own(a) + own(b)).max(initial=0)))
            else:
                P = max(P, sum(int(own(lower[gn].codes).max(initial=0))
                               for gn in gns))
        if P > 6 * g + 2 * n + 1 or P >= Q:
            raise RingUsageError(
                f"pole depth overflow in recursion step (g,n)=({g},{n})")
        W = P + 1

        def index(codes):
            return codes // kc * kst + codes % kc - 1

        def rows(gn):
            """(basis index, sorted spectator codes, coefficient) of the rows
            of one factor whose first slot is the integration point."""
            if gn == (0, 2):
                m = np.arange(W)
                return nb * kst + m, (i * kc + m + 2)[:, None], np.ones(W, dtype=complex)
            head, rest, coef = lower[gn].first
            return index(head), rest, coef

        # the basis rows the step reads; the last is the unit / omega_{0,2}
        sel = np.concatenate([j * Q + np.arange(kst) for j in range(nb)]
                             + [nb * Q + np.arange(W), [nb * Q + Q + 1]])
        nv = len(sel)
        pairs, spects, coefs = [], [], []
        for term in terms:
            if term == "w02":
                pairs.append(np.array([nv * nv - 1]))
                spects.append(np.zeros((1, 0), dtype=np.int64))
                coefs.append(np.ones(1, dtype=complex))
            elif term[0] == "lower":
                a, b, rest, coef = lower[term[1]].first_two
                pairs.append(index(a) * nv + index(b))
                spects.append(rest)
                coefs.append(coef)
            else:
                a, s1, c1 = rows(term[1])
                b, s2, c2 = rows(term[2])
                n1, n2 = len(a), len(b)
                pairs.append((a[:, None] * nv + b[None, :]).ravel())
                coefs.append((c1[:, None] * c2[None, :]).ravel())
                # the sorted merge of the two spectator sets stands for the
                # stab(key) / (stab(s1) stab(s2)) subsets of the key's slots
                # that hold s1: the rows carry the division, E the product
                spect = np.concatenate([np.repeat(s1, n2, axis=0),
                                        np.tile(s2, (n1, 1))], axis=1)
                spect.sort(axis=1)
                spects.append(spect)
        pair, pinv = np.unique(np.concatenate(pairs), return_inverse=True)
        coef = np.concatenate(coefs)
        spect = np.concatenate(spects)
        first, row = _group_rows(spect, nb * kc)
        keys = spect[first]
        nrow = len(keys)

        # pair products pb[e + P, p] = [w^e] u_a v_b, e = -P..0, of the pairs
        # p = a * nv + b that occur, from both series on [-P, P]: against
        # u_a read from exponent P down, the window view reads v_b from
        # exponent e - P up, and the zeros in front of v_b stand for its
        # exponents below -P
        a, b = np.divmod(pair, nv)
        us = self.u[sel[a], Q - P:Q + P + 1][:, ::-1]
        vs = np.concatenate([np.zeros((len(pair), P)),
                             self.v[sel[b], Q - P:Q + P + 1]], axis=1)
        # einsum rather than matmul: the products are small, and a first
        # BLAS call would make resident about 1.2 MB of work buffers
        pb = np.einsum('px,pex->ep', us,
                       sliding_window_view(vs, 2 * P + 1, axis=1)[:, :W])

        # the bracket: one row per spectator key, one column per exponent
        E = np.empty((nrow, W), dtype=complex)
        for e in range(W):
            part = coef * pb[e][pinv]
            E[:, e] = (np.bincount(row, part.real, nrow)
                       + 1j * np.bincount(row, part.imag, nrow))
        E *= _stab(keys)[:, None]     # see _SortedTensor and the split merge
        R = self.kernel[:W, P::-1]
        vals = np.einsum('re,ke->rk', E, R)
        mags = np.einsum('re,ke->rk', np.abs(E), np.abs(R))
        r, k = np.nonzero(vals)
        return i * kc + k + 2, keys[r], vals[r, k], mags[r, k]


def _group_rows(codes, base):
    """Rows of equal code tuples (codes below base): the index of one member
    of each group, in lexicographic order of the tuples, and each row's
    group.  The columns are packed into one int64 key, re-ranked only where
    one more column would overflow it."""
    key = np.zeros(len(codes), dtype=np.int64)
    span = 1
    for col in codes.T:
        if span * base >= 2 ** 62:
            _, key = np.unique(key, return_inverse=True)
            span = len(codes)
        key = key * base + col
        span *= base
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return first, group


def _bracket_terms(g: int, n: int):
    """The terms of the recursion bracket of step (g, n): "w02" for
    omega_{0,2}(z, sigma(z)), ("lower", (g-1, n+1)), and
    ("split", (h, 1+c), (g-h, n-c)) for each stable splitting that gives c of
    the n - 1 spectators to the factor at z (the one-point factors
    excluded); a split stands for its sum over the c-subsets of the
    spectator slots."""
    terms = []
    if g >= 1:
        terms.append("w02" if (g - 1, n + 1) == (0, 2) else ("lower", (g - 1, n + 1)))
    for h in range(g + 1):
        for c in range(n):
            if (h, c) == (0, 0) or (h, n - 1 - c) == (g, 0):
                continue
            terms.append(("split", (h, 1 + c), (g - h, n - c)))
    return terms


def _nonzero(order, vals, rho):
    """Mask of the entries that are not numerically zero.  A coefficient of
    total pole order K scales like rho^K (rho the largest |b_i|), so entries
    are compared after dividing by that scale: raw magnitudes span more
    decades than double precision holds, and a cut on them drops real
    low-order coefficients."""
    size = np.abs(vals) / rho ** order.astype(float)
    return size > 1e-13 * size.max(initial=0.0)


def _symmetrize(first, spect, vals, rho, kc):
    """Average the rows of a step over the orderings of each multi-index.  A
    row fixes slot 0 (code first) and sorts its spectators, and the bracket
    is symmetric in the spectators by construction, so each distinct slot-0
    choice stands for the share multiplicity / n of the orderings.  Returns
    the sorted codes and averages of the entries that are not numerically
    zero, and the largest deviation of a row from its average relative to
    the largest average: the symmetry of slot 0 against the spectators."""
    n = spect.shape[1] + 1
    full = np.sort(np.concatenate([first[:, None], spect], axis=1), axis=1)
    head, inv = _group_rows(full, int(full.max(initial=0)) + 1)
    codes = full[head]
    weight = (1 + (spect == first[:, None]).sum(axis=1)) / n
    avg = (np.bincount(inv, weight * vals.real, len(codes))
           + 1j * np.bincount(inv, weight * vals.imag, len(codes)))
    scale = np.abs(avg).max(initial=0.0) or 1.0
    asym = float(np.abs(vals - avg[inv]).max(initial=0.0) / scale)
    keep = _nonzero((codes % kc).sum(axis=1), avg, rho)
    return codes[keep], avg[keep], asym


# ---------------------------------------------------------------------------
# quadrature double-check and oracle comparison


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniforms(seed: int):
    """The stream of numpy's `default_rng(seed).random()`, bit for bit, in
    pure Python: sample points are drawn without loading numpy's random
    module (about 6 MB resident, the largest allocation of `wht tr`).  The
    seed is hashed into four 64-bit words as by numpy's `SeedSequence`,
    which seed a PCG64 generator (XSL-RR output); a draw is the top 53 bits
    of an output over 2^53."""
    if not isinstance(seed, int) or not 0 <= seed < 1 << 32:
        raise RingUsageError(f"sample seed must be an int in [0, 2^32), not {seed!r}")
    # SeedSequence: hash the entropy [seed] into a pool of four 32-bit words
    const = 0x43B0D7E5

    def hashmix(v):
        nonlocal const
        v ^= const
        const = const * 0x931E8875 & _M32
        v = v * const & _M32
        return v ^ v >> 16
    pool = [hashmix(seed)] + [hashmix(0) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]) & _M32
                pool[dst] = v ^ v >> 16
    # its generate_state(4, uint64): the seed and the increment of PCG64
    const, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        v = v * const & _M32
        words.append(v ^ v >> 16)
    w = [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128

    def draws(state):
        while True:
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            yield (x >> 11) * 2.0 ** -53
    return draws(state)


def residue_quadrature_check(omega: OmegaSet, locs, g, n, n_points: int = 400):
    """Contour-trapezoid recomputation of the recursion step (g, n) at sample
    spectator points, against the pole-coefficient result.  The bracket is
    evaluated from the lower correlators (`OmegaSet.evaluate`) and the closed
    form of omega_{0,2}: of the recursion's local data only the involution
    and the kernel denominator enter, not its pole expansions."""
    curve = omega.curve
    bps = curve.branchpoints
    uniform = _uniforms(7)
    scale = max(abs(b) for b in bps)
    zs = [scale * (2.5 + 0.5 * k) * np.exp(2j * np.pi * next(uniform))
          for k in range(n)]
    thetas = np.linspace(0, 2 * np.pi, n_points, endpoint=False)
    # (z - b_j)^k tables to the highest pole order the bracket reads: of the
    # spectators once, of z and sigma(z) once per circle
    kmax = max([1] + [omega.max_pole_order(*gn) for term in _bracket_terms(g, n)
                      if term != "w02" for gn in term[1:] if gn in omega.tensors])
    bp = np.asarray(bps)

    def table(x):
        return _pole_powers(x, bp, kmax)
    spect = [table(x) for x in zs[1:]]
    worst = 0.0
    for radii_scale in (0.05, 0.08):
        total = 0j
        for loc in locs:
            rho = radii_scale * min(
                [abs(loc.b - b) for b in bps if b != loc.b] + [abs(loc.b)])
            w = rho * np.exp(1j * thetas)
            z = loc.b + w
            sig = loc.b + horner(loc.s, w)
            tz, ts = table(z), table(sig)
            br = 0j
            for term in _bracket_terms(g, n):
                if term == "w02":
                    br = br + 1.0 / (z - sig) ** 2
                elif term[0] == "lower":
                    br = br + omega.evaluate(*term[1], [z, sig, *zs[1:]],
                                             tables=[tz, ts, *spect])
                else:
                    _, gn1, gn2 = term
                    for C in combinations(range(n - 1), gn1[1] - 1):
                        Cp = [x for x in range(n - 1) if x not in C]
                        br = br + (omega.evaluate(*gn1, [z] + [zs[1 + c] for c in C],
                                                  tables=[tz] + [spect[c] for c in C])
                                   * omega.evaluate(*gn2, [sig] + [zs[1 + c] for c in Cp],
                                                    tables=[ts] + [spect[c] for c in Cp]))
            K = _kernel_value(curve, loc, zs[0], z, sig)
            # (1 / 2 pi i) * sum over the circle of K * bracket * s' dz
            total += np.sum(K * br * horner(loc.sp, w) * w) / n_points
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
        if (g, n) not in ((0, 1), (0, 2)) and oracles[(g, n)].is_zero():
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
