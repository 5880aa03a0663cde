"""Model parameters shared by every layer of the engine."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class AssumptionViolation(Exception):
    """A configuration breaks one of the analytic assumptions.

    `clause` names the specific failed condition so callers (and the verify
    driver) can report or skip precisely.
    """

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}" + (f": {detail}" if detail else ""))


def parse_scalar(s):
    """Strings like '2/3' become Fractions; other values pass through
    unchanged (ModelParams rejects anything that is not exact)."""
    return Fraction(s) if isinstance(s, str) else s


def _check_exact(name: str, x):
    if not isinstance(x, (int, Fraction)):
        raise ValueError(f"{name} entries must be exact rationals, got {x!r}")


@dataclass(frozen=True)
class ModelParams:
    """Weight data: u-parameters of the content weight, face-degree weights
    and the truncation order.

    `u` holds the m numerator parameters first, then the r denominator ones.
    `u_exp` switches on the rational-exponential extension.  Entries are
    exact rationals (int or Fraction); a series that depends polynomially on
    a weight is interpolated from rational values of it (`ring.interpolate`).
    Zero entries of `u` are rejected unless
    `allow_zero_u` since the curve-level operations assume nonzero weights,
    while the series-level solver tolerates zeros (a zero weight simply
    trivialises its color).
    """

    m: int
    r: int
    u: tuple
    p: tuple
    q: tuple
    T: int
    u_exp: object = None
    allow_zero_u: bool = False

    def __post_init__(self):
        if self.m < 0 or self.r < 0 or self.m + self.r < 1:
            raise ValueError("need m, r >= 0 with m + r >= 1")
        if len(self.u) != self.m + self.r:
            raise ValueError("u must have m + r entries")
        if len(self.p) < 1 or len(self.q) < 1:
            raise ValueError("need D1, D2 >= 1")
        if self.T < 0:
            raise ValueError("need T >= 0")
        for name in ("u", "p", "q"):
            for x in getattr(self, name):
                _check_exact(name, x)
        if self.u_exp is not None:
            _check_exact("u_exp", self.u_exp)
        if not self.allow_zero_u:
            for uc in self.u:
                if uc == 0:
                    raise ValueError("u entries must be nonzero "
                                     "(pass allow_zero_u=True to override)")
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "p", tuple(self.p))
        object.__setattr__(self, "q", tuple(self.q))

    @staticmethod
    def make(m, r, u, p, q, T, u_exp=None, allow_zero_u=False) -> "ModelParams":
        return ModelParams(
            m=m, r=r,
            u=tuple(parse_scalar(x) for x in u),
            p=tuple(parse_scalar(x) for x in p),
            q=tuple(parse_scalar(x) for x in q),
            T=T,
            u_exp=parse_scalar(u_exp),
            allow_zero_u=allow_zero_u,
        )

    @property
    def D1(self) -> int:
        return len(self.p)

    @property
    def D2(self) -> int:
        return len(self.q)

    @property
    def M(self) -> int:
        return self.m + self.r

    @property
    def has_exp(self) -> bool:
        return self.u_exp is not None


@dataclass(frozen=True)
class EllBounds:
    """Caps for the enumeration: monotone-run lengths per denominator color
    and the free-run length of the exponential extension."""

    run_max: int = 0
    exp_run_max: int | None = None
