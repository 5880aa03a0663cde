"""Dense complex power series and polynomials in one local variable.

Arrays are complex, index = power of the variable, and a series of length L
is truncated after the power L - 1.  The ramification Newton iteration in
`spectral` and the numeric recursion in `toprec` both build on these
helpers.
"""

from __future__ import annotations

import numpy as np

from .ring import RingUsageError

__all__ = [
    "horner", "poly_shift", "poly_sub", "wseries",
    "s_mul", "s_inv", "s_compose", "s_revert", "s_sqrt", "s_exp", "s_diff",
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
    """Compositional inverse g of f = f1 w + ... with f1 != 0, by Lagrange
    inversion: [w^k] g = (1/k) [w^(k-1)] (w/f)^k, one series product per
    coefficient."""
    L = len(f)
    if f[0] != 0 or f[1] == 0:
        raise RingUsageError("reversion needs f(0)=0, f'(0)!=0")
    g = np.zeros(L, dtype=complex)
    h = s_inv(f[1:])                  # w / f through w^(L-2)
    pw = h
    for k in range(1, L):
        g[k] = pw[k - 1] / k
        pw = s_mul(pw, h)
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
