"""Coefficient arithmetic: truncated power series in t, Laurent polynomials in z,
and sparse multivariate Laurent polynomials in marking variables.

Two scalar kinds are supported and fixed per computation: exact rationals
(``fractions.Fraction``, arithmetic never rounds) and double-precision complex.
All containers are immutable after construction and every operation is a pure
function, so independent computations can safely run in parallel.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class RingUsageError(Exception):
    """Caller broke a contract (mismatched truncation orders, bad mode, ...)."""


class RingDomainError(Exception):
    """Value outside an operation's domain (non-unit inversion, ...)."""


# ---------------------------------------------------------------------------
# scalars


def is_zero(c) -> bool:
    """Structural zero test, valid for numbers and MPoly."""
    if isinstance(c, MPoly):
        return not c.terms
    return c == 0


def scalar_invert(c):
    if isinstance(c, MPoly):
        k = c.constant_or_none()
        if k is None or k == 0:
            raise RingDomainError("cannot invert a non-constant polynomial coefficient")
        return MPoly.const(_inv_number(k))
    return _inv_number(c)


def _inv_number(c):
    if c == 0:
        raise RingDomainError("division by zero scalar")
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return 1.0 / c  # complex / float


# ---------------------------------------------------------------------------
# sparse multivariate Laurent polynomials
#
# Monomials are tuples of (name, exponent) pairs sorted by name; exponents may
# be negative (needed for the x = 1/xbar directions). The empty tuple is the
# constant monomial.


def _mono_mul(m1, m2):
    d = dict(m1)
    for name, e in m2:
        e2 = d.get(name, 0) + e
        if e2:
            d[name] = e2
        else:
            del d[name]
    return tuple(sorted(d.items()))


class MPoly:
    """Sparse Laurent polynomial in named variables over exact or complex scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @staticmethod
    def const(c) -> "MPoly":
        if is_zero(c):
            return MPoly()
        return MPoly({(): c})

    @staticmethod
    def var(name: str, exp: int = 1, coeff=1) -> "MPoly":
        if exp == 0:
            return MPoly.const(coeff)
        return MPoly({((name, exp),): coeff})

    @staticmethod
    def _coerce(other):
        if isinstance(other, MPoly):
            return other
        return MPoly.const(other)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_or_none(self):
        """The scalar value if this polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def constant_term(self):
        return self.terms.get((), 0)

    def __add__(self, other):
        other = MPoly._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MPoly._coerce(other))

    def __rsub__(self, other):
        return MPoly._coerce(other) + (-self)

    def __mul__(self, other):
        other = MPoly._coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RingDomainError("negative polynomial power")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (self - MPoly._coerce(other)).is_zero()

    def __hash__(self):
        raise TypeError("MPoly is unhashable")

    def degree(self, name: str) -> int:
        """Highest exponent of `name`; 0 if absent from every term."""
        best = 0
        for m in self.terms:
            for n, e in m:
                if n == name and e > best:
                    best = e
        return best

    def min_degree(self, name: str) -> int:
        best = 0
        for m in self.terms:
            e0 = 0
            for n, e in m:
                if n == name:
                    e0 = e
            if e0 < best:
                best = e0
        return best

    def coefficient_of(self, name: str, exp: int) -> "MPoly":
        """Coefficient of name**exp, with that variable stripped out."""
        out = {}
        for m, c in self.terms.items():
            e0 = 0
            rest = []
            for n, e in m:
                if n == name:
                    e0 = e
                else:
                    rest.append((n, e))
            if e0 == exp:
                out[tuple(rest)] = c
        return MPoly(out)

    def exponents_of(self, name: str):
        return sorted({dict(m).get(name, 0) for m in self.terms})

    def diff(self, name: str) -> "MPoly":
        out: dict = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(name, 0)
            if e == 0:
                continue
            if e == 1:
                del d[name]
            else:
                d[name] = e - 1
            m2 = tuple(sorted(d.items()))
            s = out.get(m2, 0) + e * c
            if is_zero(s):
                out.pop(m2, None)
            else:
                out[m2] = s
        return MPoly(out)

    def rename(self, mapping: dict) -> "MPoly":
        out = {}
        for m, c in self.terms.items():
            m2 = tuple(sorted((mapping.get(n, n), e) for n, e in m))
            out[m2] = c
        return MPoly(out)

    def subs_scalar(self, name: str, value) -> "MPoly":
        """Substitute a scalar for one variable (negative exponents allowed)."""
        out = MPoly()
        for m, c in self.terms.items():
            e0 = 0
            rest = []
            for n, e in m:
                if n == name:
                    e0 = e
                else:
                    rest.append((n, e))
            if e0 >= 0:
                factor = value ** e0
            else:
                factor = _inv_number(value) ** (-e0)
            out = out + MPoly({tuple(rest): c * factor})
        return out

    def eval(self, values: dict):
        """Full numeric evaluation; every variable must be given a value."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for n, e in m:
                x = values[n]
                v = v * (x ** e if e >= 0 else _inv_number(x) ** (-e))
            total = total + v
        return total

    def variables(self):
        names = set()
        for m in self.terms:
            for n, _ in m:
                names.add(n)
        return sorted(names)

    def map_coeffs(self, f) -> "MPoly":
        out = {}
        for m, c in self.terms.items():
            c2 = f(c)
            if not is_zero(c2):
                out[m] = c2
        return MPoly(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"{n}^{e}" for n, e in m) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


def mpoly_divided_difference(p: MPoly, name: str, name1: str, name2: str) -> MPoly:
    """(p(name1) - p(name2)) / (name1 - name2), computed monomial by monomial.

    Requires nonnegative exponents of `name`; other variables ride along.
    """
    out = MPoly()
    for m, c in p.terms.items():
        e0 = 0
        rest = []
        for n, e in m:
            if n == name:
                e0 = e
            else:
                rest.append((n, e))
        if e0 < 0:
            raise RingDomainError("divided difference needs nonnegative exponents")
        for a in range(e0):
            d = dict(rest)
            if a:
                d[name1] = a
            b = e0 - 1 - a
            if b:
                d[name2] = b
            out = out + MPoly({tuple(sorted(d.items())): c})
    return out


def mpoly_div_linear(p: MPoly, v1: str, v2: str) -> MPoly:
    """Exact division of p by (v1 - v2); raises if the remainder is nonzero."""
    if p.is_zero():
        return MPoly()
    deg = p.degree(v1)
    if p.min_degree(v1) < 0:
        raise RingDomainError("division by (v1 - v2) needs nonnegative v1-exponents")
    coeffs = [p.coefficient_of(v1, k) for k in range(deg + 1)]
    # synthetic division at v1 = v2, from the top degree down
    quot = [MPoly() for _ in range(deg)]
    carry = MPoly()
    y = MPoly.var(v2)
    for k in range(deg, 0, -1):
        carry = coeffs[k] + carry
        quot[k - 1] = carry
        carry = carry * y
    rem = coeffs[0] + carry
    if not rem.is_zero():
        raise RingDomainError("nonzero remainder in exact linear division")
    out = MPoly()
    for k, q in enumerate(quot):
        out = out + (q * MPoly.var(v1, k) if k else q)
    return out


# ---------------------------------------------------------------------------
# truncated power series in t


class TSeries:
    """Power series in t truncated at a fixed order T; coefficients are scalars
    or MPoly. Two series interoperate only at equal T."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise RingUsageError("order must be >= 0")
        cs = list(coeffs)
        if len(cs) != order + 1:
            raise RingUsageError("coefficient list must have length order+1")
        self.order = order
        self.coeffs = tuple(cs)

    @staticmethod
    def const(order: int, c) -> "TSeries":
        return TSeries(order, [c] + [0] * order)

    @staticmethod
    def zero(order: int) -> "TSeries":
        return TSeries(order, [0] * (order + 1))

    @staticmethod
    def t_power(order: int, k: int, c=1) -> "TSeries":
        cs = [0] * (order + 1)
        if k <= order:
            cs[k] = c
        return TSeries(order, cs)

    def _check(self, other: "TSeries"):
        if self.order != other.order:
            raise RingUsageError(
                f"mixed truncation orders {self.order} != {other.order}")

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return all(is_zero(a - b) for a, b in zip(self.coeffs, other.coeffs))
        return all(is_zero(c) for c in self.coeffs[1:]) and is_zero(self.coeffs[0] - other)

    def __hash__(self):
        raise TypeError("TSeries is unhashable")

    def __add__(self, other):
        if not isinstance(other, TSeries):
            other = TSeries.const(self.order, other)
        self._check(other)
        return TSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TSeries):
            other = TSeries.const(self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return TSeries.const(self.order, other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return self.scale(other)
        self._check(other)
        T = self.order
        out = [0] * (T + 1)
        for i, a in enumerate(self.coeffs):
            if is_zero(a):
                continue
            for j in range(T + 1 - i):
                b = other.coeffs[j]
                if is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return TSeries(T, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if is_zero(c):
            return TSeries.zero(self.order)
        return TSeries(self.order, [c * a if not is_zero(a) else 0 for a in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise RingDomainError("negative series power; use invert")
        result = TSeries.const(self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_unit(self) -> bool:
        c0 = self.coeffs[0]
        if isinstance(c0, MPoly):
            k = c0.constant_or_none()
            return k is not None and k != 0
        return not is_zero(c0)

    def invert(self) -> "TSeries":
        """Multiplicative inverse; the t^0 coefficient must be invertible."""
        if not self.is_unit():
            raise RingDomainError("inversion requires a unit constant term")
        T = self.order
        b0 = scalar_invert(self.coeffs[0])
        out = [b0] + [0] * T
        for k in range(1, T + 1):
            s = 0
            for j in range(1, k + 1):
                a = self.coeffs[j]
                if is_zero(a) or is_zero(out[k - j]):
                    continue
                s = s + a * out[k - j]
            out[k] = -b0 * s if not is_zero(s) else 0
        return TSeries(T, out)

    def exp(self) -> "TSeries":
        """exp of a series with zero constant term."""
        if not is_zero(self.coeffs[0]):
            raise RingDomainError("exp needs zero constant term")
        T = self.order
        acc = TSeries.const(T, 1)
        power = TSeries.const(T, 1)
        for k in range(1, T + 1):
            power = power * self
            if power.is_zero():
                break
            fk = factorial(k)
            inv = Fraction(1, fk) if _exactish(power) else 1.0 / fk
            acc = acc + power.scale(inv)
        return acc

    def tshift(self, s: int) -> "TSeries":
        """Multiply by t^s (coefficients beyond T are dropped)."""
        if s < 0:
            raise RingUsageError("tshift needs s >= 0")
        return TSeries(self.order, [0] * min(s, self.order + 1)
                       + list(self.coeffs[: self.order + 1 - s]))

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if not is_zero(c):
                return k
        return None

    def map_coeffs(self, f) -> "TSeries":
        return TSeries(self.order, [f(c) for c in self.coeffs])

    def eval_t(self, t):
        """Horner evaluation at a numeric t; MPoly coefficients stay symbolic."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self):
        return "TSeries[" + ", ".join(repr(c) for c in self.coeffs) + "]"


def _exactish(ts: TSeries) -> bool:
    for c in ts.coeffs:
        if isinstance(c, (complex, float)):
            return False
        if isinstance(c, MPoly):
            for v in c.terms.values():
                if isinstance(v, (complex, float)):
                    return False
    return True


def series_compose(f: TSeries, aux: str, g: TSeries) -> TSeries:
    """Substitute g for the variable `aux` in f.

    f's coefficients are polynomials in `aux` (nonnegative exponents); the
    substitution must not produce a constant: g needs zero constant scalar term.
    """
    f._check(g)
    c0 = g.coeffs[0]
    const = c0.constant_term() if isinstance(c0, MPoly) else c0
    if not is_zero(const):
        raise RingDomainError("composition target has nonzero constant term")
    K = 0
    for c in f.coeffs:
        if isinstance(c, MPoly):
            if c.min_degree(aux) < 0:
                raise RingDomainError("series_compose needs nonnegative aux exponents")
            K = max(K, c.degree(aux))
    # split f by aux-degree, then Horner in g
    layers = []
    for k in range(K + 1):
        layer = TSeries(f.order, [
            c.coefficient_of(aux, k) if isinstance(c, MPoly)
            else (MPoly.const(c) if k == 0 else MPoly())
            for c in f.coeffs])
        layers.append(layer)
    acc = layers[K]
    for k in range(K - 1, -1, -1):
        acc = acc * g + layers[k]
    return acc


def divided_difference(Z: TSeries, var: str = "xb", var1: str = "xb1",
                       var2: str = "xb2") -> TSeries:
    """R with R*(x1-x2) == Z(x1)-Z(x2); requires Z = var*(unit) + higher orders."""
    c0 = Z.coeffs[0]
    if not (isinstance(c0, MPoly) and c0 == MPoly.var(var)):
        raise RingDomainError("divided_difference needs Z = xbar + O(t)")
    return Z.map_coeffs(lambda c: mpoly_divided_difference(
        c if isinstance(c, MPoly) else MPoly.const(c), var, var1, var2))


# ---------------------------------------------------------------------------
# Laurent polynomials in z with TSeries coefficients


PROJECTION_MODES = ("lt", "le", "gt", "ge")


class ZLaurent:
    """Laurent polynomial in z over truncated t-series, with explicit window.

    The projection modes are exact coefficient filters on the z-exponent; the
    brace-style nonnegative part of a series in 1/z coincides with mode "ge".
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict | None = None):
        self.order = order
        cs = {}
        if coeffs:
            for e, ts in coeffs.items():
                if not ts.is_zero():
                    if ts.order != order:
                        raise RingUsageError("ZLaurent coefficient order mismatch")
                    cs[e] = ts
        self.coeffs = cs

    @staticmethod
    def const(order: int, c) -> "ZLaurent":
        return ZLaurent(order, {0: TSeries.const(order, c)})

    @staticmethod
    def z_power(order: int, e: int, c=1) -> "ZLaurent":
        return ZLaurent(order, {e: TSeries.const(order, c)})

    def window(self):
        if not self.coeffs:
            return None
        return (min(self.coeffs), max(self.coeffs))

    def get(self, e: int) -> TSeries:
        return self.coeffs.get(e, TSeries.zero(self.order))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("ZLaurent is unhashable")

    def __add__(self, other):
        if not isinstance(other, ZLaurent):
            other = ZLaurent.const(self.order, other)
        out = dict(self.coeffs)
        for e, ts in other.coeffs.items():
            s = out.get(e)
            out[e] = ts if s is None else s + ts
        return ZLaurent(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return ZLaurent(self.order, {e: -ts for e, ts in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, ZLaurent):
            other = ZLaurent.const(self.order, other)
        return self + (-other)

    def mul(self, other: "ZLaurent", lo=None, hi=None) -> "ZLaurent":
        """Product, optionally clipped to the window [lo, hi].

        Clipping mid-computation is sound whenever the discarded exponents can
        never re-enter the target window through later factors (all our uses
        multiply one-signed-exponent series).
        """
        out: dict = {}
        for e1, a in self.coeffs.items():
            for e2, b in other.coeffs.items():
                e = e1 + e2
                if (lo is not None and e < lo) or (hi is not None and e > hi):
                    continue
                p = a * b
                if p.is_zero():
                    continue
                s = out.get(e)
                out[e] = p if s is None else s + p
        return ZLaurent(self.order, out)

    def __mul__(self, other):
        if isinstance(other, ZLaurent):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "ZLaurent":
        if isinstance(c, TSeries):
            return ZLaurent(self.order, {e: ts * c for e, ts in self.coeffs.items()})
        return ZLaurent(self.order, {e: ts.scale(c) for e, ts in self.coeffs.items()})

    def zshift(self, s: int) -> "ZLaurent":
        return ZLaurent(self.order, {e + s: ts for e, ts in self.coeffs.items()})

    def clip(self, lo=None, hi=None) -> "ZLaurent":
        return ZLaurent(self.order, {
            e: ts for e, ts in self.coeffs.items()
            if (lo is None or e >= lo) and (hi is None or e <= hi)})

    def project(self, mode: str) -> "ZLaurent":
        if mode not in PROJECTION_MODES:
            raise RingUsageError(f"unknown projection mode {mode!r}")
        keep = {
            "lt": lambda e: e < 0,
            "le": lambda e: e <= 0,
            "gt": lambda e: e > 0,
            "ge": lambda e: e >= 0,
        }[mode]
        return ZLaurent(self.order, {e: ts for e, ts in self.coeffs.items() if keep(e)})

    def power(self, n: int, lo=None, hi=None) -> "ZLaurent":
        if n < 0:
            raise RingDomainError("negative power; use invert")
        result = ZLaurent.const(self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result.mul(base, lo, hi)
            n >>= 1
            if n:
                base = base.mul(base, lo, hi)
        return result

    def invert(self, lo: int, hi: int) -> "ZLaurent":
        """Inverse on the window [lo, hi].

        Needs a unit z^0 coefficient; the remaining support must consist of
        negative exponents and/or positive exponents of positive t-valuation,
        which is what guarantees the geometric series terminates on a window.
        """
        f0 = self.coeffs.get(0)
        if f0 is None or not f0.is_unit():
            raise RingDomainError("ZLaurent inversion needs a unit z^0 term")
        inv0 = f0.invert()
        n = (self.scale(inv0) - ZLaurent.const(self.order, 1)).clip(lo, hi)
        max_iter = (self.order + 2) * (hi - lo + 2) + 4
        acc = ZLaurent.const(self.order, 1)
        term = ZLaurent.const(self.order, 1)
        sign = 1
        for _ in range(max_iter):
            term = term.mul(n, lo, hi)
            sign = -sign
            if term.is_zero():
                break
            acc = acc + term.scale(sign)
        else:
            raise RingDomainError("ZLaurent inversion did not terminate on window")
        return acc.scale(inv0).clip(lo, hi)

    def exp(self, lo: int, hi: int) -> "ZLaurent":
        """exp on the window [lo, hi]; terminates by exponent descent or t-valuation."""
        max_iter = (self.order + 2) * (hi - lo + 2) + 4
        acc = ZLaurent.const(self.order, 1)
        power = ZLaurent.const(self.order, 1)
        for k in range(1, max_iter + 1):
            power = power.mul(self, lo, hi)
            if power.is_zero():
                break
            fk = factorial(k)
            acc = acc + power.scale(Fraction(1, fk) if _zl_exactish(power) else 1.0 / fk)
        else:
            raise RingDomainError("ZLaurent exp did not terminate on window")
        return acc

    def derivative(self) -> "ZLaurent":
        return ZLaurent(self.order, {
            e - 1: ts.scale(e) for e, ts in self.coeffs.items() if e != 0})

    def eval_series(self, g: TSeries, ginv: TSeries | None = None) -> TSeries:
        """Evaluate at z = g; negative exponents use ginv = 1/g."""
        T = self.order
        out = TSeries.zero(T)
        win = self.window()
        if win is None:
            return out
        lo, hi = win
        if hi > 0:
            acc = TSeries.zero(T)
            for e in range(hi, 0, -1):
                acc = acc + self.get(e)
                acc = acc * g
            out = out + acc
        out = out + self.get(0)
        if lo < 0:
            if ginv is None:
                raise RingUsageError("negative exponents need ginv")
            acc = TSeries.zero(T)
            p = TSeries.const(T, 1)
            for k in range(1, -lo + 1):
                p = p * ginv
                acc = acc + p * self.get(-k)
            out = out + acc
        return out

    def eval_at_t(self, t) -> dict:
        """Numeric t-instantiation: {z-exponent: complex coefficient}."""
        out = {}
        for e, ts in self.coeffs.items():
            v = ts.eval_t(t)
            if isinstance(v, MPoly):
                raise RingUsageError("symbolic coefficients cannot instantiate")
            out[e] = complex(v)
        return out

    def map_coeffs(self, f) -> "ZLaurent":
        return ZLaurent(self.order, {e: f(ts) for e, ts in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "ZLaurent{}"
        bits = [f"z^{e}: {ts!r}" for e, ts in sorted(self.coeffs.items())]
        return "ZLaurent{" + "; ".join(bits) + "}"


def _zl_exactish(zl: ZLaurent) -> bool:
    return all(_exactish(ts) for ts in zl.coeffs.values())
