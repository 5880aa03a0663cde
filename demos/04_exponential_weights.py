"""The rational-exponential extension.

An extra free (not necessarily monotone) run of transpositions, weighted
v^length / length!, corresponds to an exponential factor in the content
weight.  The solved system acquires a pair of auxiliary blocks; the genus-0
series are exact polynomials in v, interpolated from solves at rational v,
and the whole extension is the N -> infinity limit of a rational model with
one weight v/N repeated N times.
"""

from fractions import Fraction as F

from wht import ModelParams, solve_system
from wht.spectral import solve_bulk_approximation
from wht.verify import exp_series_in_v

pe = ModelParams.make(m=1, r=1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                      q=[F(2, 7)], T=3, u_exp=F(1, 5))
sde = solve_system(pe)
print("auxiliary block eta:", sde.eta.window(), " theta:", sde.theta.window())

(disk, _), (oracle, _) = exp_series_in_v(pe, pe)
print("\ndisk series t^2 coefficient, exact in v:")
print("  ", disk.coeffs[2])
print("matches enumeration exactly:",
      all((a - b).is_zero() for a, b in zip(disk.coeffs[1:], oracle.coeffs[1:])))

print("\nfinite-N approximation error (one block, worst coefficient):")
for N in (10 ** 2, 10 ** 4, 10 ** 6):
    sdb = solve_bulk_approximation(pe, N)
    worst = max(
        (abs(c) for ts in (sdb.A["c0"] - sde.A["c0"]).coeffs.values()
         for c in ts.coeffs), default=F(0))
    print(f"  N = {N:>9}: {float(worst):.3e}")
