"""Dense complex power series and polynomials in one local variable.

Arrays are complex, index = power of the variable, and a series of length L
is truncated after the power L - 1.  A Laurent value is a pair (offset,
array): the array's first entry is the coefficient of w^offset.  The
ramification Newton iteration in `spectral` and the numeric recursion in
`toprec` both build on these helpers.
"""

from __future__ import annotations

import numpy as np

from .ring import RingUsageError

__all__ = [
    "horner", "poly_shift", "poly_sub", "wseries",
    "s_mul", "s_inv", "s_compose", "s_revert", "s_sqrt", "s_exp", "s_diff",
    "l_mul", "l_add", "l_coeff_product", "l_low",
]


def horner(poly, z):
    """sum_k poly[k] z^k."""
    acc = 0j
    for c in reversed(poly):
        acc = acc * z + c
    return acc


def poly_shift(poly, b, L):
    """Taylor coefficients of P(b + w) up to w^(L-1), by repeated synthetic
    division."""
    zero = b * 0
    work = list(poly)
    out = []
    for _ in range(L):
        if not work:
            out.append(zero)
            continue
        rem = zero
        for c in reversed(work):
            rem = rem * b + c
        out.append(rem)
        # divide by (z - b)
        new = []
        acc = zero
        for c in reversed(work):
            acc = acc * b + c
            new.append(acc)
        work = list(reversed(new[:-1]))
    return np.array(out, dtype=complex)


def poly_sub(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[:len(a)] += a
    out[:len(b)] -= b
    return out


def wseries(L):
    """The series w itself."""
    w = np.zeros(L, dtype=complex)
    if L > 1:
        w[1] = 1.0
    return w


def s_mul(a, b):
    L = len(a)
    return np.convolve(a, b)[:L]


def s_inv(a):
    L = len(a)
    if a[0] == 0:
        raise RingUsageError("series inverse needs nonzero constant term")
    out = np.zeros(L, dtype=complex)
    out[0] = 1 / a[0]
    for k in range(1, L):
        out[k] = -out[0] * np.dot(a[1:k + 1], out[k - 1::-1][: k])
    return out


def s_compose(f, g):
    """f(g(w)) with g[0] = 0, by Horner."""
    L = len(f)
    if abs(g[0]) > 0:
        raise RingUsageError("composition target needs zero constant term")
    acc = np.zeros(L, dtype=complex)
    for c in f[::-1]:
        acc = s_mul(acc, g)
        acc[0] += c
    return acc


def s_revert(f):
    """Compositional inverse of f = f1 w + ... with f1 != 0."""
    L = len(f)
    if f[0] != 0 or f[1] == 0:
        raise RingUsageError("reversion needs f(0)=0, f'(0)!=0")
    g = np.zeros(L, dtype=complex)
    g[1] = 1 / f[1]
    for k in range(2, L):
        # choose g_k so that [w^k] f(g(w)) vanishes
        val = s_compose(f, g)[k]
        g[k] = -val / f[1]
    return g


def s_sqrt(a):
    """Square root of a series with a[0] != 0 (principal branch at a[0])."""
    L = len(a)
    c0 = np.sqrt(a[0])
    h = a / a[0]
    # exp(0.5 log h): log by integrating h'/h
    lg = np.zeros(L, dtype=complex)
    rat = s_mul(s_diff(h), s_inv(h))
    for k in range(1, L):
        lg[k] = rat[k - 1] / k
    return c0 * s_exp(lg / 2)


def s_exp(a):
    """exp of a series with a[0] = 0, by its Taylor sum."""
    if a[0] != 0:
        raise RingUsageError("series exp needs zero constant term")
    out = np.zeros(len(a), dtype=complex)
    out[0] = 1
    pw = out.copy()
    fact = 1
    for k in range(1, len(a)):
        pw = s_mul(pw, a)
        fact *= k
        out = out + pw / fact
    return out


def s_diff(a):
    """Derivative, padded with a zero to keep the length."""
    return np.array([k * a[k] for k in range(1, len(a))] + [a[0] * 0],
                    dtype=complex)


def l_mul(a, b, L):
    oa, va = a
    ob, vb = b
    return (oa + ob, np.convolve(va, vb)[:L])


def l_add(a, b):
    oa, va = a
    ob, vb = b
    off = min(oa, ob)
    n = max(oa + len(va), ob + len(vb)) - off
    out = np.zeros(n, dtype=complex)
    out[oa - off: oa - off + len(va)] += va
    out[ob - off: ob - off + len(vb)] += vb
    return (off, out)


def l_coeff_product(a, b, k):
    """Coefficient of exponent k in the product a*b, together with the sum of
    absolute values of its additive contributions (conditioning estimate)."""
    oa, va = a
    ob, vb = b
    val = 0j
    mag = 0.0
    for j, x in enumerate(va):
        if x == 0:
            continue
        idx = k - (oa + j) - ob
        if 0 <= idx < len(vb):
            term = x * vb[idx]
            val += term
            mag += float(abs(term))
    return val, mag


def l_low(a):
    """Lowest exponent with a nonzero coefficient, or None."""
    off, v = a
    for i, x in enumerate(v):
        if x != 0:
            return off + i
    return None
