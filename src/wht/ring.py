"""Coefficient arithmetic: truncated power series in t, Laurent polynomials in z,
and sparse multivariate Laurent polynomials in marking variables.

Scalars are exact rationals (``int`` or ``fractions.Fraction``; arithmetic
never rounds).  A series coefficient is a scalar or an MPoly over scalars in
the marking variables; a Laurent block (``ZLaurent``, ``ZStream``) holds
scalars only.  MPoly terms and block coefficients are always ``int`` or
``Fraction``: their products raise ``RingUsageError`` on anything else.  A
series that depends polynomially on a weight is built by ``interpolate``
from series computed at rational values of the weight.  Complex numbers
enter only as evaluation points (``MPoly.eval``, ``TSeries.eval_t``).  All
containers are immutable after construction and every operation is a pure
function, so independent computations can safely run in parallel.

Every product-sum runs on integers.  A kernel brings each operand to integer
numerators over one common denominator, accumulates integer products, and
builds one ``Fraction`` per output coefficient instead of one per term
product.  There are two kernels:

* ``MPoly.__mul__`` accumulates ``{monomial: int}`` for one pair (``_common``);
* every series runs on slices: a slice is one row of (exponent code,
  numerator) pairs over one denominator, and each product, inverse or
  exponential slice is one accumulation over the slices below it
  (``_products``).  ``ZStream`` computes a Laurent block one t^k slice at a
  time, the codes being z-exponents; ``TSeries`` codes each coefficient as
  one slice of monomial codes, which add under products as z-exponents do.

Slices are the one stored form of a series.  A ``TSeries`` keeps its
coefficients coded (``_Code``), and every operation on it reads and returns
that code; it decodes to int, Fraction and MPoly once, on the first read of
``coeffs``, and a series built from coefficients codes them once, on its
first operation.  A ``ZLaurent`` stores its t^0..t^T slices, each over its
least denominator, and the order of its z-exponents, and nothing else:
sums, scalings and shifts run on the slices as products do.  A block built
from {z^e: TSeries} codes its columns once, in its constructor, and
``coeffs`` and ``get`` decode on every read.  The decoded values, their
types and the order of MPoly terms are those of the same arithmetic done
term by term, and a block lists its z-exponents as a {z^e: series} dict
would (``ZLaurent``):

An output coefficient is an ``int`` when no operand holds a ``Fraction``,
and a scalar zero is the int 0; ``invert`` and ``exp`` return Fractions,
but for the int 1 at t^0 of ``exp``.  A sum is a Fraction where a summand
is one.  A block coefficient is an ``int`` when its t^k slice has
denominator 1, that is when every coefficient at t^k is an integer, and a
Fraction otherwise.  As in a term-by-term sum, a series coefficient is an
MPoly when an MPoly entered it: a cancelled product or exponential
coefficient is ``MPoly()``, a cancelled coefficient of an inverse the int 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm


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


def _common(cs):
    """(integer numerators, common denominator D, any Fraction) for a sequence
    of int/Fraction scalars, so that c == numerator / D; None if any coefficient
    is something else (an MPoly, a complex evaluation point)."""
    D = 1
    frac = False
    for c in cs:
        t = type(c)
        if t is Fraction:
            frac = True
            d = c.denominator
            if D % d:
                D = lcm(D, d)
        elif t is not int:
            return None
    if not frac:
        return cs, 1, False
    return [c.numerator * (D // c.denominator) if type(c) is Fraction else c * D
            for c in cs], D, True


def _rational(n: int, D: int, frac: bool):
    """n / D as the product kernels return it: int when no operand held a
    Fraction, else a Fraction; an exact zero is the int 0."""
    if not frac or not n:
        return n
    return Fraction(n, D)


def _inv_number(c):
    if c == 0:
        raise RingDomainError("division by zero scalar")
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return 1.0 / c  # complex evaluation points in MPoly.eval


# ---------------------------------------------------------------------------
# sparse multivariate Laurent polynomials
#
# Monomials are tuples of (name, exponent) pairs sorted by name; exponents may
# be negative (needed for the x = 1/xbar directions). The empty tuple is the
# constant monomial.


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1 and len(m2) == 1 and m1[0][0] == m2[0][0]:
        e = m1[0][1] + m2[0][1]
        return ((m1[0][0], e),) if e else ()
    d = dict(m1)
    for name, e in m2:
        e2 = d.get(name, 0) + e
        if e2:
            d[name] = e2
        else:
            del d[name]
    return tuple(sorted(d.items()))


class MPoly:
    """Sparse Laurent polynomial in named variables over exact rationals."""

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
        ra = _common(self.terms.values())
        rb = _common(other.terms.values())
        if ra is None or rb is None:
            _reject([*self.terms.values(), *other.terms.values()])
        (na, Da, fa), (nb, Db, fb) = ra, rb
        acc: dict = {}
        for m1, n1 in zip(self.terms, na):
            for m2, n2 in zip(other.terms, nb):
                m = _mono_mul(m1, m2)
                s = acc.get(m, 0) + n1 * n2
                # a monomial whose sum cancels leaves the dict and re-enters
                # at the end, so term order is that of a term-by-term sum
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        D, frac = Da * Db, fa or fb
        return MPoly({m: _rational(n, D, frac) for m, n in acc.items()})

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


# ---------------------------------------------------------------------------
# the slice kernel


class _Slice:
    """One coefficient of a series in integer form: `row` lists the (exponent
    code, numerator) pairs of its nonzero terms over one denominator den > 0,
    in the order of the terms.  A Laurent block's slice k is its t^k
    coefficient, coded by z-exponents; a `TSeries` coefficient is coded by
    monomial codes (`_mono_code`).  Slices are never changed once made."""

    __slots__ = ("row", "den")

    def __init__(self, row, den):
        self.row, self.den = row, den


_EMPTY = _Slice([], 1)
_ONE = _Slice([(0, 1)], 1)


def _reduced(sl: _Slice) -> _Slice:
    """sl over the least denominator of its values."""
    g = gcd(sl.den, *(n for _, n in sl.row))
    if g == 1:
        return sl
    return _Slice([(e, n // g) for e, n in sl.row], sl.den // g)


def _products(pairs, lo, hi, den: int = 1) -> _Slice:
    """The slice (sum of w x y over the (x, y, w) slice pairs) / den, clipped
    to the code window [lo, hi] (None: unbounded).  Its codes come in order
    of first appearance, and it is not reduced: a block reduces a slice when
    it stores it."""
    L = 1
    for x, y, _ in pairs:
        if x.row and y.row:
            d = x.den * y.den
            if L % d:
                L = lcm(L, d)
    acc: dict = {}
    for x, y, w in pairs:
        f = w * (L // (x.den * y.den))
        yrow = y.row
        for i, n in x.row:
            if f != 1:
                n *= f
            for j, m in yrow:
                e = i + j
                acc[e] = acc.get(e, 0) + n * m
    if lo is None and hi is None:
        return _Slice([(e, n) for e, n in acc.items() if n], L * den)
    lo = -inf if lo is None else lo
    hi = inf if hi is None else hi
    return _Slice([(e, n) for e, n in acc.items() if n and lo <= e <= hi], L * den)


def _add(x: _Slice, y: _Slice) -> _Slice:
    """x + y: the codes of x, then those of y not in x; a cancelled code
    leaves the row."""
    if not y.row:
        return x
    if not x.row:
        return y
    L = lcm(x.den, y.den)
    fx, fy = L // x.den, L // y.den
    acc = {e: n * fx for e, n in x.row}
    for e, n in y.row:
        acc[e] = acc.get(e, 0) + n * fy
    return _Slice([(e, n) for e, n in acc.items() if n], L)


def _negated(x: _Slice) -> _Slice:
    return _Slice([(e, -n) for e, n in x.row], x.den) if x.row else x


def _joined(entries) -> _Slice:
    """The slice of the (code, numerator, denominator) entries."""
    D = 1
    for _, _, d in entries:
        if D % d:
            D = lcm(D, d)
    return _Slice([(e, n * (D // d)) for e, n, d in entries], D)


def _reject(values):
    bad = next(c for c in values if type(c) not in (int, Fraction))
    raise RingUsageError(
        f"MPoly terms must be int or Fraction, not {type(bad).__name__}")


# ---------------------------------------------------------------------------
# series coefficients in coded form
#
# A series over the sorted variable names `names` codes the monomial with
# exponent e_k at names[k] as the integer sum of e_k * 2^(64 k); any exponent
# below 2^63 in size decodes uniquely, and the code of a product of monomials
# is the sum of their codes, so the slice kernel multiplies coefficients as it
# multiplies Laurent blocks in z.  A scalar is coded as the constant monomial,
# code 0, in any names.  Each coefficient also carries the kind of value it
# decodes to: bit 1 says MPoly, bit 0 that its terms (or the scalar) are
# Fractions.  An MPoly whose terms mix int and Fraction has kind _POLY and
# the codes of its Fraction terms in the series' `fracs` map.

_INT, _FRAC, _POLY, _PFRAC = 0, 1, 2, 3
_DIGIT = (1 << 64) - 1        # one exponent place of a monomial code


def _mono_code(m, weight) -> int:
    return sum(e * weight[n] for n, e in m)


def _weights(names) -> dict:
    return {n: 1 << (64 * k) for k, n in enumerate(names)}


def _monomial(code: int, names) -> tuple:
    """The monomial whose code is `code`, as a sorted tuple of (name,
    exponent) pairs."""
    mono = []
    for name in names:
        e = code & _DIGIT
        if e > _DIGIT >> 1:
            e -= _DIGIT + 1
        code = (code - e) >> 64
        if e:
            mono.append((name, e))
    return tuple(mono)


class _Code:
    """A series in coded form: per coefficient a slice and a kind, the names
    of its monomial codes, and {index: codes of the Fraction terms} for the
    MPoly coefficients whose terms mix int and Fraction."""

    __slots__ = ("names", "slices", "kinds", "fracs")

    def __init__(self, names, slices, kinds, fracs):
        self.names, self.slices, self.kinds, self.fracs = names, slices, kinds, fracs

    def has_frac(self) -> bool:
        """Whether any nonzero coefficient holds a Fraction."""
        return any(x.row and (k & 1 or i in self.fracs)
                   for i, (x, k) in enumerate(zip(self.slices, self.kinds)))

    def fracs_of(self, i: int):
        """The Fraction terms of coefficient i: True (all), False (none) or
        the set of their codes."""
        k = self.kinds[i]
        return True if k & 1 else self.fracs.get(i, False)

    def in_names(self, names) -> "_Code":
        """This code over the names `names`, a superset of its own."""
        if not self.names:
            return _Code(names, self.slices, self.kinds, self.fracs)
        w, old, new = _weights(names), self.names, {}
        for x in self.slices:
            for c, _ in x.row:
                if c not in new:
                    new[c] = _mono_code(_monomial(c, old), w)
        return _Code(names, [_Slice([(new[c], n) for c, n in x.row], x.den)
                             for x in self.slices], self.kinds,
                     {i: frozenset(new[c] for c in s) for i, s in self.fracs.items()})


def _encode(cs) -> _Code:
    names = tuple(sorted({n for c in cs if type(c) is MPoly
                          for m in c.terms for n, _ in m}))
    w = _weights(names)
    slices, kinds, fracs = [], [], {}
    for i, c in enumerate(cs):
        t = type(c)
        if t is int:
            slices.append(_Slice([(0, c)], 1) if c else _EMPTY)
            kinds.append(_INT)
        elif t is Fraction:
            slices.append(_Slice([(0, c.numerator)], c.denominator) if c else _EMPTY)
            kinds.append(_FRAC)
        elif t is MPoly:
            values = list(c.terms.values())
            r = _common(values)
            if r is None:
                _reject(values)
            nums, D, frac = r
            codes = [_mono_code(m, w) for m in c.terms]
            slices.append(_Slice(list(zip(codes, nums)), D))
            fr = [e for e, v in zip(codes, values) if type(v) is Fraction]
            kinds.append(_PFRAC if frac and len(fr) == len(codes) else _POLY)
            if fr and len(fr) < len(codes):
                fracs[i] = frozenset(fr)
        else:
            _reject([c])
    return _Code(names, slices, kinds, fracs)


def _decode(code: _Code) -> tuple:
    names, monos, out = code.names, {}, []
    for i, (x, k) in enumerate(zip(code.slices, code.kinds)):
        D = x.den
        if not k & 2:
            n = x.row[0][1] if x.row else 0
            out.append(Fraction(n, D) if k else n // D)
            continue
        fr = code.fracs.get(i, ())
        terms = {}
        for c, n in x.row:
            m = monos.get(c)
            if m is None:
                m = monos[c] = _monomial(c, names)
            terms[m] = Fraction(n, D) if k & 1 or c in fr else n // D
        out.append(MPoly(terms))
    return tuple(out)


def _aligned(a: "TSeries", b: "TSeries"):
    """The codes of a and b over one set of names."""
    ca, cb = a.code(), b.code()
    if ca.names == cb.names:
        return ca, cb
    if not cb.names:
        return ca, cb.in_names(ca.names)
    if not ca.names:
        return ca.in_names(cb.names), cb
    names = tuple(sorted({*ca.names, *cb.names}))
    return ca.in_names(names), cb.in_names(names)


def _sum_kind(x, fx, y, fy, s: _Slice):
    """(kind, Fraction codes or None) of the MPoly sum s = x + y of slices
    whose Fraction terms are fx and fy (True, False or a set of codes): as in
    MPoly.__add__, a term is a Fraction when a summand's term is one."""
    if not s.row or fx is False and fy is False:
        return _POLY, None
    if fx is True and fy is True:
        return _PFRAC, None
    fr = set()
    for f, z in ((fx, x), (fy, y)):
        if f is True:
            fr.update(c for c, _ in z.row)
        elif f:
            fr.update(f)
    fr = [c for c, _ in s.row if c in fr]
    if len(fr) == len(s.row):
        return _PFRAC, None
    return _POLY, (frozenset(fr) if fr else None)


# ---------------------------------------------------------------------------
# truncated power series in t


class TSeries:
    """Power series in t truncated at a fixed order T; coefficients are scalars
    or MPoly. Two series interoperate only at equal T.

    A series keeps its coefficients in coded form (`_Code`): products, sums,
    scalings, shifts, inverses and exponentials read and return that form
    alone.  A series built from coefficients codes them on its first such
    operation; one that an operation returned decodes `coeffs` on their first
    read, to the values, types and term order that the same arithmetic on
    int, Fraction and MPoly coefficients gives."""

    __slots__ = ("order", "_coeffs", "_code")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise RingUsageError("order must be >= 0")
        cs = list(coeffs)
        if len(cs) != order + 1:
            raise RingUsageError("coefficient list must have length order+1")
        self.order = order
        self._coeffs = tuple(cs)
        self._code = None

    @staticmethod
    def _coded(order: int, code: _Code) -> "TSeries":
        s = object.__new__(TSeries)
        s.order, s._coeffs, s._code = order, None, code
        return s

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = _decode(self._code)
        return self._coeffs

    def code(self) -> _Code:
        if self._code is None:
            self._code = _encode(self._coeffs)
        return self._code

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
        if self._coeffs is not None:
            return all(is_zero(c) for c in self._coeffs)
        return not any(x.row for x in self._code.slices)

    def __eq__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("TSeries is unhashable")

    def __add__(self, other):
        """Sum, coefficient by coefficient as int, Fraction and MPoly add: a
        scalar sum is a Fraction when a summand is one, zero included, and
        an MPoly sum lists the terms of the MPoly summand (the left one of
        two) first."""
        if not isinstance(other, TSeries):
            other = TSeries.const(self.order, other)
        self._check(other)
        a, b = _aligned(self, other)
        slices, kinds, fracs = [], [], {}
        for i, (x, ka, y, kb) in enumerate(zip(a.slices, a.kinds, b.slices, b.kinds)):
            if not (ka | kb) & 2:
                slices.append(_add(x, y))
                kinds.append(ka | kb)
                continue
            fx, fy = a.fracs_of(i), b.fracs_of(i)
            if not ka & 2:
                x, y, fx, fy = y, x, fy, fx
            s = _add(x, y)
            k, fr = _sum_kind(x, fx, y, fy, s)
            slices.append(s)
            kinds.append(k)
            if fr:
                fracs[i] = fr
        return TSeries._coded(self.order, _Code(a.names, slices, kinds, fracs))

    __radd__ = __add__

    def __neg__(self):
        c = self.code()
        return TSeries._coded(self.order, _Code(
            c.names, [_negated(x) for x in c.slices], c.kinds, c.fracs))

    def __sub__(self, other):
        if not isinstance(other, TSeries):
            other = TSeries.const(self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return TSeries.const(self.order, other) + (-self)

    def __mul__(self, other):
        """Product; coefficient k is one `_products` call over the pairs
        (a_i, b_(k-i)) of nonzero coefficients, an MPoly when an MPoly is
        among them and the int 0 when there are none.  Its terms are
        Fractions when a nonzero coefficient of either series holds one."""
        if not isinstance(other, TSeries):
            return self.scale(other)
        self._check(other)
        a, b = _aligned(self, other)
        frac = _FRAC if a.has_frac() or b.has_frac() else _INT
        xa, xb, ka, kb = a.slices, b.slices, a.kinds, b.kinds
        slices, kinds = [], []
        for k in range(self.order + 1):
            ij = [(i, k - i) for i in range(k + 1) if xa[i].row and xb[k - i].row]
            if not ij:
                slices.append(_EMPTY)
                kinds.append(_INT)
                continue
            s = _products([(xa[i], xb[j], 1) for i, j in ij], None, None)
            poly = _POLY if any((ka[i] | kb[j]) & 2 for i, j in ij) else _INT
            slices.append(s)
            kinds.append(poly | frac if s.row else poly)
        return TSeries._coded(self.order, _Code(a.names, slices, kinds, {}))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """c times every coefficient, a zero coefficient giving the int 0;
        as in MPoly.__mul__, the terms of a product with an MPoly are all
        Fractions when one factor term is."""
        if is_zero(c):
            return TSeries.zero(self.order)
        t = type(c)
        if t is MPoly:
            return TSeries(self.order, [c * a if not is_zero(a) else 0 for a in self.coeffs])
        if t is int:
            cn, cd, cf = c, 1, _INT
        elif t is Fraction:
            cn, cd, cf = c.numerator, c.denominator, _FRAC
        else:
            _reject([c])
        code = self.code()
        slices, kinds = [], []
        for i, (x, k) in enumerate(zip(code.slices, code.kinds)):
            if not x.row:
                slices.append(_EMPTY)
                kinds.append(_INT)
                continue
            slices.append(_Slice([(e, n * cn) for e, n in x.row], x.den * cd))
            kinds.append(k | cf | (_FRAC if i in code.fracs else _INT))
        return TSeries._coded(self.order, _Code(code.names, slices, kinds, {}))

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
        x = self.code().slices[0]
        return len(x.row) == 1 and x.row[0][0] == 0 and x.row[0][1] != 0

    def invert(self) -> "TSeries":
        """Multiplicative inverse; the t^0 coefficient must be invertible.
        Its slices are those of `ZStream.invert` on an unbounded window, and
        (1/a)_k is an MPoly when an MPoly entered a nonzero term
        a_j (1/a)_(k-j) or a_0; its terms are Fractions, and a cancelled
        coefficient is the int 0."""
        if not self.is_unit():
            raise RingDomainError("inversion requires a unit constant term")
        T, code = self.order, self.code()
        xs, ps = code.slices, [k & 2 for k in code.kinds]
        inv = ZStream(T, slices=xs).invert(None, None)
        inv.slice(T)
        ys, polys = inv.slices, [ps[0]]
        for k in range(1, T + 1):
            polys.append(_POLY if ps[0] or any(ps[j] or polys[k - j] for j in range(1, k + 1)
                                               if xs[j].row and ys[k - j].row) else _INT)
        kinds = [p | _FRAC if y.row else _INT for y, p in zip(ys, polys)]
        return TSeries._coded(T, _Code(code.names, ys, kinds, {}))

    def exp(self) -> "TSeries":
        """exp of a series F with zero constant term.  Its slices are those of
        `ZStream.exp` on an unbounded window, k E_k = sum_j j F_j E_(k-j);
        as in the sum of F^m / m!, E_k is an MPoly when a product
        F_j1 ... F_jm of nonzero coefficients, j1 + ... + jm = k, holds one.
        E_0 is the int 1, and the terms of E_k, k >= 1, Fractions."""
        code = self.code()
        if code.slices[0].row:
            raise RingDomainError("exp needs zero constant term")
        T, xs = self.order, code.slices
        E = ZStream(T, slices=xs).exp(None, None)
        E.slice(T)
        reach, kinds = [True], [_INT]     # some such product; the kind of E_k
        for k in range(1, T + 1):
            js = [j for j in range(1, k + 1) if xs[j].row and reach[k - j]]
            reach.append(bool(js))
            poly = any(code.kinds[j] & 2 or kinds[k - j] & 2 for j in js)
            kinds.append((_POLY if poly else _INT) | (_FRAC if E.slices[k].row else _INT))
        return TSeries._coded(T, _Code(code.names, [_ONE] + E.slices[1:T + 1], kinds, {}))

    def tshift(self, s: int) -> "TSeries":
        """Multiply by t^s (coefficients beyond T are dropped)."""
        if s < 0:
            raise RingUsageError("tshift needs s >= 0")
        T, code = self.order, self.code()
        n = max(T + 1 - s, 0)
        return TSeries._coded(T, _Code(
            code.names, [_EMPTY] * (T + 1 - n) + code.slices[:n],
            [_INT] * (T + 1 - n) + code.kinds[:n],
            {i + s: f for i, f in code.fracs.items() if i < n}))

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


def _poly_series(order: int, names, cols) -> TSeries:
    """The series whose coefficient k is the MPoly with the terms n / d at
    the monomials prod names[i]^exps[i] of the (exps, n, d, frac) entries of
    cols[k], in their order; a term is a Fraction when frac is true, else an
    int (d divides n)."""
    w = [1 << (64 * i) for i in range(len(names))]
    slices, kinds, fracs = [], [], {}
    for k, col in enumerate(cols):
        codes = [sum(e * x for e, x in zip(exps, w)) for exps, _, _, _ in col]
        slices.append(_joined([(c, n, d) for c, (_, n, d, _) in zip(codes, col)]))
        fr = [c for c, (*_, frac) in zip(codes, col) if frac]
        kinds.append(_PFRAC if col and len(fr) == len(col) else _POLY)
        if fr and len(fr) < len(col):
            fracs[k] = frozenset(fr)
    return TSeries._coded(order, _Code(tuple(names), slices, kinds, fracs))


def interpolate(f, name: str, nodes):
    """The series f(x) as polynomials in the variable `name`, from their
    values at rational nodes.  f maps a node to a tuple of TSeries whose
    coefficients are scalars or MPoly free of `name`.  Lagrange
    interpolation through every node but the last gives each coefficient as
    an MPoly of degree below len(nodes) - 1 in `name`; the value at the last
    node must equal f there, or this raises RingDomainError."""
    *xs, last = [Fraction(x) for x in nodes]
    basis = []                  # coefficient lists of the Lagrange basis
    for j, xj in enumerate(xs):
        b = [Fraction(1)]
        for i, xi in enumerate(xs):
            if i != j:          # times (x - xi) / (xj - xi)
                b = [(a - xi * c) / (xj - xi) for a, c in zip([0, *b], [*b, 0])]
        basis.append(b)
    series = list(zip(*(f(x) for x in [*xs, last])))   # per series, its values
    out = tuple(TSeries(s[0].order, [_interpolant(cs, basis, name)
                                     for cs in zip(*(v.coeffs for v in s[:-1]))])
                for s in series)
    weights = [sum(c * last ** e for e, c in enumerate(b)) for b in basis]
    for *s, e in series:
        if not sum((v.scale(w) for v, w in zip(s, weights)), TSeries.zero(e.order)) == e:
            raise RingDomainError(f"the interpolant in {name} misses the node {last}")
    return out


def _interpolant(cs, basis, name: str) -> MPoly:
    """The MPoly through the values cs at the nodes of the Lagrange basis."""
    ys: dict = {}               # monomial -> its value at each node
    for j, c in enumerate(cs):
        for m, v in (c.terms.items() if isinstance(c, MPoly) else [((), c)]):
            if v:
                ys.setdefault(m, [0] * len(cs))[j] = v
    out = {}
    for m, y in ys.items():
        for e in range(len(basis)):
            s = sum(v * b[e] for v, b in zip(y, basis) if v)
            if s:
                out[_mono_mul(m, ((name, e),)) if e else m] = s
    return MPoly(out)


# ---------------------------------------------------------------------------
# Laurent polynomials in z with TSeries coefficients


PROJECTION_MODES = ("lt", "le", "gt", "ge")


class ZLaurent:
    """Laurent polynomial in z over truncated t-series, with explicit window.

    A block stores its t^0..t^T slices over z-exponent codes, each over its
    least denominator, and the order of its z-exponents; nothing else.
    Every operation that returns a block runs one `ZStream` rule on the
    slices (`_stream`).  A block made from {z^e: TSeries} codes its columns
    once, in the constructor, which rejects an MPoly coefficient; `coeffs`
    and `get` decode on every read and keep nothing.  A decoded coefficient
    is an int when its t^k slice has denominator 1, else a Fraction.  The
    z-exponents come in the order of a {z^e: series} dict: a block made from
    one keeps its order; a kernel result (`mul`, `power`, `invert`, `exp`)
    lists them in order of first appearance over its slices; a sum lists the
    left operand's, then the right's new ones; negation, scaling, clips,
    shifts and `tshift` keep the order; an exponent whose coefficients all
    vanish leaves it.  The projection modes are exact coefficient filters on
    the z-exponent; the brace-style nonnegative part of a series in 1/z
    coincides with mode "ge".
    """

    __slots__ = ("order", "_slices", "_exps")

    def __init__(self, order: int, coeffs: dict | None = None):
        cols, exps = [[] for _ in range(order + 1)], []
        for e, ts in (coeffs or {}).items():
            if ts.is_zero():
                continue
            if ts.order != order:
                raise RingUsageError("ZLaurent coefficient order mismatch")
            code = ts.code()
            for k, (x, kind) in enumerate(zip(code.slices, code.kinds)):
                if kind & 2:
                    raise RingUsageError(
                        "Laurent block coefficients must be int or Fraction, not MPoly")
                if x.row:
                    cols[k].append((e, x.row[0][1], x.den))
            exps.append(e)
        self.order, self._slices, self._exps = order, [_joined(c) for c in cols], tuple(exps)

    @staticmethod
    def _made(order: int, slices, exps=None) -> "ZLaurent":
        """The block of the reduced `slices`; its z-exponents are those of
        `exps` that it holds, in that order, or with exps None in order of
        first appearance."""
        held = dict.fromkeys(e for sl in slices for e, _ in sl.row)
        zl = object.__new__(ZLaurent)
        zl.order, zl._slices = order, slices
        zl._exps = tuple(held if exps is None else (e for e in dict.fromkeys(exps) if e in held))
        return zl

    def _columns(self, exps) -> dict:
        """{e: the t-series of z^e} for the z-exponents `exps`."""
        T = self.order
        cols = {e: ([_EMPTY] * (T + 1), [_INT] * (T + 1)) for e in exps}
        for k, sl in enumerate(self._slices):
            kind = _FRAC if sl.den > 1 else _INT
            for e, n in sl.row:
                col = cols.get(e)
                if col is not None:
                    col[0][k], col[1][k] = _Slice([(0, n)], sl.den), kind
        return {e: TSeries._coded(T, _Code((), xs, ks, {})) for e, (xs, ks) in cols.items()}

    @property
    def coeffs(self) -> dict:
        return self._columns(self._exps)

    def get(self, e: int) -> TSeries:
        return self._columns((e,))[e]

    @staticmethod
    def const(order: int, c) -> "ZLaurent":
        return ZLaurent(order, {0: TSeries.const(order, c)})

    def window(self):
        return (min(self._exps), max(self._exps)) if self._exps else None

    def is_zero(self) -> bool:
        return not self._exps

    def __eq__(self, other):
        if not isinstance(other, ZLaurent):
            return NotImplemented
        if self.order != other.order:
            raise RingUsageError(f"mixed truncation orders {self.order} != {other.order}")
        return all(not _add(x, _negated(y)).row for x, y in zip(self._slices, other._slices))

    def __hash__(self):
        raise TypeError("ZLaurent is unhashable")

    def __add__(self, other):
        if not isinstance(other, ZLaurent):
            other = ZLaurent.const(self.order, other)
        return (_stream(self) + _stream(other)).value(self._exps + other._exps)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

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
        return _stream(self).mul(_stream(other), lo, hi).value()

    def __mul__(self, other):
        if isinstance(other, ZLaurent):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "ZLaurent":
        """c times the block; c must be int or Fraction."""
        return _stream(self).scale(c).value(self._exps)

    def zshift(self, s: int) -> "ZLaurent":
        return _stream(self).zshift(s).value(e + s for e in self._exps)

    def clip(self, lo=None, hi=None) -> "ZLaurent":
        return _stream(self).clip(lo, hi).value(self._exps)

    def project(self, mode: str) -> "ZLaurent":
        if mode not in PROJECTION_MODES:
            raise RingUsageError(f"unknown projection mode {mode!r}")
        return self.clip(*{"lt": (None, -1), "le": (None, 0),
                           "gt": (1, None), "ge": (0, None)}[mode])

    def tshift(self, s: int) -> "ZLaurent":
        """Multiply by t^s (coefficients beyond the order are dropped)."""
        return _stream(self).tshift(s).value(self._exps)

    def power(self, n: int, lo=None, hi=None) -> "ZLaurent":
        return _stream(self).power(n, lo, hi).value()

    def invert(self, lo: int, hi: int) -> "ZLaurent":
        """Inverse on the window [lo, hi], as `ZStream.invert`."""
        return _stream(self).invert(lo, hi).value()

    def exp(self, lo: int, hi: int) -> "ZLaurent":
        """exp on the window [lo, hi], as `ZStream.exp`."""
        return _stream(self).exp(lo, hi).value()

    def eval_series(self, g: TSeries, ginv: TSeries | None = None) -> TSeries:
        """Evaluate at z = g; negative exponents use ginv = 1/g."""
        T = self.order
        out = TSeries.zero(T)
        win = self.window()
        if win is None:
            return out
        lo, hi = win
        cs, zero = self.coeffs, TSeries.zero(T)
        if hi > 0:
            acc = TSeries.zero(T)
            for e in range(hi, 0, -1):
                acc = acc + cs.get(e, zero)
                acc = acc * g
            out = out + acc
        out = out + cs.get(0, zero)
        if lo < 0:
            if ginv is None:
                raise RingUsageError("negative exponents need ginv")
            acc = TSeries.zero(T)
            p = TSeries.const(T, 1)
            for k in range(1, -lo + 1):
                p = p * ginv
                acc = acc + p * cs.get(-k, zero)
            out = out + acc
        return out

    def eval_at_t(self, t) -> dict:
        """Numeric t-instantiation: {z-exponent: complex coefficient}."""
        out = {}
        for e, ts in self.coeffs.items():
            out[e] = complex(ts.eval_t(t))
        return out

    def __repr__(self):
        if not self.coeffs:
            return "ZLaurent{}"
        bits = [f"z^{e}: {ts!r}" for e, ts in sorted(self.coeffs.items())]
        return "ZLaurent{" + "; ".join(bits) + "}"


# ---------------------------------------------------------------------------
# Laurent blocks computed order by order in t


def _scalar_slice(c) -> _Slice:
    """The constant c z^0 as a slice."""
    if type(c) not in (int, Fraction):
        raise RingUsageError(
            f"Laurent block coefficients must be int or Fraction, not {type(c).__name__}")
    if not c:
        return _EMPTY
    return _Slice([(0, c.numerator)], c.denominator)


def _window_inverse(f: _Slice, lo, hi) -> _Slice:
    """1/f on the z-window [lo, hi] for a z-polynomial f = f_0 + (negative
    exponents) with an invertible constant f_0: f_0^-1 sum_m (1 - f/f_0)^m,
    whose m-th term has exponents <= -m."""
    at0 = [(e, n) for e, n in f.row if e >= 0]
    if len(at0) != 1 or at0[0][0] != 0:
        raise RingDomainError(
            "ZLaurent inversion needs a unit z^0 term and no positive exponent at t^0")
    n0 = at0[0][1]
    sign = 1 if n0 > 0 else -1
    step = _Slice([(e, -sign * n) for e, n in f.row if e], abs(n0))
    if step.row and lo is None:
        raise RingDomainError("an inverse on an unbounded window needs a scalar slice 0")
    inv0 = _Slice([(0, sign * f.den)], abs(n0))
    terms = [_ONE]
    while True:
        term = _products([(terms[-1], step, 1)], lo, hi)
        if not term.row:
            return _products([(t, inv0, 1) for t in terms], lo, hi)
        terms.append(term)


def _window_exp(f: _Slice, lo, hi) -> _Slice:
    """exp f on the z-window [lo, hi]: sum_m f^m / m!, which must end on it;
    on an unbounded window f must be zero."""
    if not f.row:
        return _ONE
    if lo is None or hi is None:
        raise RingDomainError("ZLaurent exp did not terminate on window")
    out = term = _ONE
    for m in range(1, hi - lo + 2):
        term = _products([(term, f, 1)], lo, hi, m)
        if not term.row:
            return out
        out = _add(out, term)
    raise RingDomainError("ZLaurent exp did not terminate on window")


class ZStream:
    """A Laurent block in z over t-series truncated at `order`, computed one
    t^k slice at a time.  `slice(k)` computes slice k once, from the slices
    of its operands up to order k, and below k through `tshift(s)`, s >= 1.

    A block has the ZLaurent operations that the spectral system uses, each
    returning a new block, so that one statement of a system runs over
    either type; every ZLaurent operation runs here, and so do TSeries
    inverses and exponentials, whose blocks code monomials in place of
    z-exponents.  Its coefficients are int or Fraction; an MPoly raises
    `RingUsageError`.  An `unknown` block receives its slices from `feed`: a
    system X = F(X) whose right-hand side reads X only through tshift(s >= 1)
    is solved by feeding each slice of F(X) back into X.  Slice k of
    * a product is sum_j X_j Y_(k-j);
    * an inverse is (1/F)_k = F_0^-1 (-sum_(j>=1) F_j (1/F)_(k-j));
    * an exponential solves k E_k = sum_j j F_j E_(k-j);
    where F_0^-1 and E_0 = exp(F_0) are taken on the z-window, because F_0
    may have negative exponents.  Inverse and exponential windows contain
    z^0; on an unbounded window (a bound None), F_0 must be a scalar for
    the inverse and zero for the exponential.  Each slice accumulates as
    integers over one denominator (`_products`) and is reduced once, when
    the block stores it; `value` hands the stored slices to a ZLaurent,
    which keeps them as its one form.
    """

    __slots__ = ("order", "val", "slices", "_rule")

    def __init__(self, order: int, rule=None, val=0, slices=None):
        self.order = order
        self.val = val          # slices below val are zero
        self.slices = [] if slices is None else slices
        self._rule = rule

    @staticmethod
    def unknown(order: int) -> "ZStream":
        """A block whose slices come from `feed`."""
        return ZStream(order)

    def feed(self, sl: _Slice):
        self.slices.append(sl)

    def slice(self, k: int) -> _Slice:
        s = self.slices
        while len(s) <= k:
            if self._rule is None:
                raise RingUsageError(f"slice {len(s)} of an unknown block is not known yet")
            s.append(_reduced(self._rule(len(s))))
        return s[k]

    def _derive(self, rule, other=None, val=None, slices=None) -> "ZStream":
        if other is not None and other.order != self.order:
            raise RingUsageError(
                f"mixed truncation orders {self.order} != {other.order}")
        return ZStream(self.order, rule, self.val if val is None else val, slices)

    def const(self, order: int, c) -> "ZStream":
        one = _scalar_slice(c)
        return ZStream(order, lambda k: one if k == 0 else _EMPTY)

    def __add__(self, other: "ZStream") -> "ZStream":
        return self._derive(lambda k: _add(self.slice(k), other.slice(k)), other,
                            min(self.val, other.val))

    def scale(self, c) -> "ZStream":
        cs = _scalar_slice(c)
        return self._derive(lambda k: _products([(self.slice(k), cs, 1)], None, None))

    def zshift(self, s: int) -> "ZStream":
        def rule(k):
            x = self.slice(k)
            return _Slice([(e + s, n) for e, n in x.row], x.den)
        return self._derive(rule)

    def clip(self, lo=None, hi=None) -> "ZStream":
        lo = -inf if lo is None else lo
        hi = inf if hi is None else hi

        def rule(k):
            x = self.slice(k)
            return _Slice([(e, n) for e, n in x.row if lo <= e <= hi], x.den)
        return self._derive(rule)

    def tshift(self, s: int) -> "ZStream":
        """Multiply by t^s: slice k is slice k - s of this block."""
        if s < 0:
            raise RingUsageError("tshift needs s >= 0")
        return self._derive(lambda k: self.slice(k - s) if k >= s else _EMPTY,
                            val=self.val + s)

    def mul(self, other: "ZStream", lo=None, hi=None) -> "ZStream":
        """Product clipped to [lo, hi]; slice k reads no operand slice below
        its valuation, so X_j and Y_(k-j) only for j = val X .. k - val Y."""
        def rule(k):
            return _products([(self.slice(j), other.slice(k - j), 1)
                              for j in range(self.val, k - other.val + 1)], lo, hi)
        return self._derive(rule, other, self.val + other.val)

    def power(self, n: int, lo=None, hi=None) -> "ZStream":
        """x^n by binary powering, every product clipped to [lo, hi]."""
        if n < 0:
            raise RingDomainError("negative power; use invert")
        result, base = self.const(self.order, 1), self
        while n:
            if n & 1:
                result = result.mul(base, lo, hi)
            n >>= 1
            if n:
                base = base.mul(base, lo, hi)
        return result

    def invert(self, lo, hi) -> "ZStream":
        """Inverse on the window [lo, hi] (lo <= 0 <= hi, None: unbounded).
        Slice 0 needs a unit z^0 coefficient and no positive exponent; then
        every slice is a finite sum on the window."""
        # the rule reads the inverse's earlier slices through this list, which
        # the new block shares: a closure over the block itself would make a
        # reference cycle, and every solve would wait for the cyclic collector
        inv = []
        _check_window(lo, hi)

        def rule(k):
            if k == 0:
                return _window_inverse(self.slice(0), lo, hi)
            self.slice(k)
            xs = self.slices
            r = _products([(xs[j], inv[k - j], -1) for j in range(1, k + 1)], lo, hi)
            return _products([(inv[0], r, 1)], lo, hi)
        return self._derive(rule, val=0, slices=inv)

    def exp(self, lo, hi) -> "ZStream":
        """exp on the window [lo, hi] (lo <= 0 <= hi, None: unbounded); the
        exponential of slice 0 must end on the window, so slice 0 has no z^0
        term."""
        E = []                  # shared with the new block, as in `invert`
        _check_window(lo, hi)

        def rule(k):
            if k == 0:
                return _window_exp(self.slice(0), lo, hi)
            self.slice(k)
            xs = self.slices
            return _products([(xs[j], E[k - j], j) for j in range(1, k + 1)], lo, hi, k)
        return self._derive(rule, val=0, slices=E)

    def value(self, exps=None) -> ZLaurent:
        """The block through its order as a ZLaurent of its slices, its
        z-exponents listed as `ZLaurent._made` lists them."""
        T = self.order
        self.slice(T)
        return ZLaurent._made(T, self.slices[:T + 1], exps)


def _check_window(lo, hi):
    if not ((lo is None or lo <= 0) and (hi is None or 0 <= hi)):
        raise RingUsageError(f"the window [{lo}, {hi}] must contain z^0")


def _stream(zl: ZLaurent) -> ZStream:
    """The block zl as a ZStream whose slices are all known."""
    slices = zl._slices
    val = next((k for k, sl in enumerate(slices) if sl.row), zl.order + 1)
    return ZStream(zl.order, val=val, slices=slices)
