"""Polynomial-weight cross-checks built from lattice-path decompositions.

For models whose content weight is a polynomial (no denominator colors, no
exponential part), the solved blocks admit a rescaled normal form in which
slice generating functions become weighted Lukasiewicz-path coefficient
extractions.  These give a second, independent route to the disk and cylinder
series on a finite window; the module computes that route and the related
structural identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams
from .ring import (
    MPoly, TSeries, ZLaurent, RingDomainError, RingUsageError, scalar_invert,
    _poly_series,
)
from .spectral import SpectralData, compute_Z

__all__ = [
    "TildeData", "tilde_transform", "path_coefficient",
    "w01_bijective", "w02_annular", "elementary_slice_residual",
    "tilde_system_residuals", "last_passage_check", "path_recursion_residuals",
]


class UnsupportedModel(RingUsageError):
    """Raised for models outside the polynomial-weight case."""


@dataclass
class TildeData:
    params: ModelParams
    m: int
    uprod: object                  # product of the numerator weights
    Atilde: dict = None            # color -> ZLaurent, window [0, D2]
    Btilde: dict = None            # color -> ZLaurent, window [-D1, 0]
    Ztilde: TSeries = None


def tilde_transform(sd: SpectralData, params: ModelParams) -> TildeData:
    """Rescale the solved blocks into their path normal form and verify the
    rescaled system and fixed point exactly."""
    if params.r != 0 or params.has_exp:
        raise UnsupportedModel("path decompositions need a polynomial weight")
    m = params.m
    uprod = 1
    for ui in params.u:
        uprod = uprod * ui
    At, Bt = {}, {}
    for c in range(m):
        ubar = scalar_invert(params.u[c])
        At[c] = ZLaurent(sd.T, {
            e: ts.scale(ubar * uprod ** e)
            for e, ts in sd.A[f"c{c}"].coeffs.items()})
        Bt[c] = ZLaurent(sd.T, {
            e: ts.scale(scalar_invert(uprod ** (-e)) if e < 0 else 1)
            for e, ts in sd.B[f"c{c}"].coeffs.items()})
    Zt = compute_Z(sd).scale(scalar_invert(uprod))
    td = TildeData(params=params, m=m, uprod=uprod,
                   Atilde=At, Btilde=Bt, Ztilde=Zt)
    resA, resB = tilde_system_residuals(td)
    for c in range(m):
        if not (resA[c].is_zero() and resB[c].is_zero()):
            raise RingDomainError("rescaled path system residual is nonzero")
    if not _ztilde_residual(td).is_zero():
        raise RingDomainError("rescaled fixed point residual is nonzero")
    return td


def tilde_system_residuals(td: TildeData):
    """Residuals of the rescaled system: the equations have constant terms
    1/u_c (white) and 1 (black), with the rescaled expansion parameter."""
    params = td.params
    T, m = params.T, td.m
    D1, D2 = params.D1, params.D2
    one = ZLaurent.const(T, 1)
    resA, resB = {}, {}

    baseB = one
    invB = {c: td.Btilde[c].invert(-D2, 0) for c in range(m)}
    for c in range(m):
        baseB = baseB.mul(td.Btilde[c], -D2, 0)
    for c in range(m):
        rhs = ZLaurent.const(T, scalar_invert(params.u[c]))
        basepow = one
        for s in range(1, D2 + 1):
            basepow = basepow.mul(baseB, -D2, 0)
            cur = basepow.mul(invB[c], -D2, 0).zshift(s).project("ge")
            qs = params.q[s - 1] * td.uprod ** s
            rhs = rhs + cur.scale(qs).tshift(s)
        resA[c] = td.Atilde[c] - rhs

    baseA = one
    invA = {c: td.Atilde[c].invert(0, D1) for c in range(m)}
    for c in range(m):
        baseA = baseA.mul(td.Atilde[c], 0, D1)
    for c in range(m):
        rhs = one
        basepow = one
        for s in range(1, D1 + 1):
            basepow = basepow.mul(baseA, 0, D1)
            cur = basepow.mul(invA[c], 0, D1).zshift(-s).project("lt")
            rhs = rhs + cur.scale(params.p[s - 1])
        resB[c] = td.Btilde[c] - rhs
    return resA, resB


def _ztilde_residual(td: TildeData) -> TSeries:
    prod = TSeries.const(td.params.T, 1)
    for c in range(td.m):
        prod = prod * td.Atilde[c].eval_series(td.Ztilde)
    xb = TSeries.const(td.params.T, MPoly.var("xb"))
    return td.Ztilde - xb * prod


# ---------------------------------------------------------------------------
# path coefficients


def _step_series(td: TildeData, color: int, kind: str) -> ZLaurent:
    """One path step at a color: white steps rise m*i - 1, black steps fall."""
    src = td.Atilde if kind == "white" else td.Btilde
    out = {}
    for e, ts in src[color % td.m].coeffs.items():
        out[m_exp(e, td.m, kind)] = ts
    return ZLaurent(td.params.T, out)


def m_exp(e: int, m: int, kind: str) -> int:
    # A-block exponent i >= 0 becomes a step of m*i - 1; B-block exponent
    # -i <= 0 becomes 1 - m*i
    if kind == "white":
        return m * e - 1
    return 1 + m * e


def path_coefficient(td: TildeData, color_start: int, n: int, k: int,
                     kind: str = "white") -> TSeries:
    """Generating series of n-step colored paths with total increment k
    (white) or -k (black): a coefficient of a product of step polynomials.

    The step at position r uses color color_start - r + 1 modulo the number
    of colors.
    """
    if n < 0:
        raise RingUsageError("need n >= 0")
    if kind not in ("white", "black"):
        raise RingUsageError("kind must be 'white' or 'black'")
    T = td.params.T
    prod = ZLaurent.const(T, 1)
    for r in range(1, n + 1):
        prod = prod.mul(_step_series(td, color_start - r + 1, kind))
    target = k if kind == "white" else -k
    return prod.get(target)


def path_recursion_residuals(td: TildeData):
    """The step coefficients satisfy the slice recursion: removing the base
    of an elementary slice of increment m*k-1 leaves an opposite-color slice
    with base length m*s-1, whose increment is measured in the opposite
    convention (hence the extraction at 1 - m*k).  All residuals must vanish.
    """
    params = td.params
    T, m = params.T, td.m
    out_white, out_black = {}, {}
    for c in range(m):
        for k in range(0, params.D2 + 1):
            rhs = TSeries.zero(T)
            if k == 0:
                rhs = rhs + TSeries.const(T, scalar_invert(params.u[c]))
            for s in range(1, params.D2 + 1):
                coeff = path_coefficient(td, c - 1, m * s - 1, 1 - m * k, "black")
                qs = params.q[s - 1] * td.uprod ** s
                rhs = rhs + coeff.scale(qs).tshift(s)
            out_white[(c, k)] = td.Atilde[c].get(k) - rhs
        for k in range(1, params.D1 + 1):
            rhs = TSeries.zero(T)
            for s in range(1, params.D1 + 1):
                coeff = path_coefficient(td, c - 1, m * s - 1, 1 - m * k, "white")
                rhs = rhs + coeff.scale(params.p[s - 1])
            out_black[(c, k)] = td.Btilde[c].get(-k) - rhs
    return out_white, out_black


# ---------------------------------------------------------------------------
# disk series by rooted-slice difference


def _marked_product(td: TildeData, color: int, s: int) -> ZLaurent:
    """Product over r = 1 .. m*s - 1 of the white step series at colors
    color - r, as a Laurent polynomial in the path variable."""
    prod = ZLaurent.const(td.params.T, 1)
    for r in range(1, td.m * s):
        prod = prod.mul(_step_series(td, color - r, "white"))
    return prod


def elementary_slice_residual(td: TildeData, color: int = 0) -> TSeries:
    """The rooted elementary slice satisfies a self-consistency equation whose
    residual must vanish identically."""
    params = td.params
    T = params.T
    A0 = td.Atilde[color].get(0)
    rhs = TSeries.const(T, scalar_invert(params.u[color]))
    for s in range(1, params.D1 + 1):
        extraction = _marked_product(td, color, s).get(1)
        rhs = rhs + (A0 * extraction).scale(params.p[s - 1])
    return A0 - rhs


def w01_bijective(td: TildeData, color: int = 0) -> TSeries:
    """Disk series from the rooted/pointed slice difference argument; equals
    the curve-based disk series and the enumeration on the shared window."""
    params = td.params
    T, m = params.T, td.m
    Zt = td.Ztilde
    AatZ = td.Atilde[color].eval_series(Zt)
    out = AatZ - TSeries.const(T, scalar_invert(params.u[color]))
    Zpow = TSeries.const(T, 1)
    powers = [Zpow]
    for _ in range(T):
        Zpow = Zpow * Zt
        powers.append(Zpow)
    for s in range(1, params.D1 + 1):
        prod = _marked_product(td, color, s)
        acc = TSeries.zero(T)
        for k in range(0, T + 1):
            coeff = prod.get(m * k + 1)
            if coeff.is_zero():
                continue
            acc = acc + powers[k] * coeff
        out = out - (AatZ * acc).scale(params.p[s - 1])
    return out * TSeries.const(T, MPoly.var("xb"))


# ---------------------------------------------------------------------------
# cylinder series by annular gluing


def _a_product_powers(td: TildeData, fmax: int, emax: int):
    """Powers of the full step-product polynomial, clipped to exponents
    [0, emax]."""
    prod = ZLaurent.const(td.params.T, 1)
    for c in range(td.m):
        prod = prod.mul(td.Atilde[c], 0, emax)
    powers = [ZLaurent.const(td.params.T, 1)]
    for _ in range(fmax):
        powers.append(powers[-1].mul(prod, 0, emax))
    return powers


def w02_annular(td: TildeData, orders=None) -> TSeries:
    """Cylinder series as the annular-gluing sum over the separating length p,
    truncated at (f1_max, f2_max, p_max).  With all three set to the solved
    t-order the truncation is lossless on that window: each term of separating
    length p carries at least p powers of the expansion parameter."""
    params = td.params
    T = params.T
    if orders is None:
        orders = (T, T, T)
    f1m, f2m, pm = orders
    emax = max(f1m, f2m) + pm
    powers = _a_product_powers(td, max(f1m, f2m), emax)
    total = TSeries.zero(T)
    for p in range(1, pm + 1):
        s1 = _marked(powers, range(p, f1m + 1), -p, "xb1", T)
        if s1.is_zero():
            continue
        s2 = _marked(powers, range(0, f2m + 1), p, "xb2", T)
        if s2.is_zero():
            continue
        total = total + (s1 * s2).scale(p)
    return total


def _marked(powers, fs, shift: int, name: str, T: int) -> TSeries:
    """sum over f in fs of [z^(f + shift)] powers[f] * name^(f + 1), each
    coefficient given its monomial directly from its coded scalar."""
    cols = [[] for _ in range(T + 1)]
    for f in fs:
        code = powers[f].get(f + shift).code()
        for k, (x, kind) in enumerate(zip(code.slices, code.kinds)):
            if x.row:
                cols[k].append(((f + 1,), x.row[0][1], x.den, kind & 1))
    return _poly_series(T, (name,), cols)


def last_passage_check(td: TildeData, p_max: int, f_max: int):
    """Nonpositive path-variable coefficients of the annular kernel against
    the closed form D(x) * Ztilde(x)^p with D = -x Ztilde'/Ztilde.

    Returns the residual series per p (each exact zero on the window).
    """
    params = td.params
    T = params.T
    emax = f_max + p_max
    powers = _a_product_powers(td, f_max, emax)
    Zt = td.Ztilde
    dZt = Zt.map_coeffs(lambda c: c.diff("xb") if isinstance(c, MPoly) else 0)
    U = Zt * TSeries.const(T, MPoly.var("xb", -1))
    # -x Ztilde'/Ztilde rewritten in the series variable: (dZ/dxb) / (Z x)
    D = dZt * U.invert()   # 1 + O(t)
    residuals = []
    Zpow = TSeries.const(T, 1)
    for p in range(0, p_max + 1):
        lhs = TSeries.zero(T)
        for f in range(p, f_max + 1):
            c = powers[f].get(f - p)
            if c.is_zero():
                continue
            lhs = lhs + c * TSeries.const(T, MPoly.var("xb", f))
        rhs = D * Zpow
        rhs = _drop_high_xb(rhs, f_max)
        lhs = _drop_high_xb(lhs, f_max)
        residuals.append(lhs - rhs)
        Zpow = Zpow * Zt
    return residuals


def _drop_high_xb(ts: TSeries, deg: int) -> TSeries:
    return ts.map_coeffs(lambda c: MPoly(
        {m: v for m, v in c.terms.items() if dict(m).get("xb", 0) <= deg})
        if isinstance(c, MPoly) else c)
