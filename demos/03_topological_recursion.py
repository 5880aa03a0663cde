"""Running the residue recursion and checking it against brute force.

The solved system is instantiated at a small complex expansion value; the
branchpoints, local involutions and recursion kernels are built as local
series, and the correlator differentials come out as finite pole-coefficient
tensors.  The three-holed sphere and the one-holed torus are then compared
with the enumerated correlators at sample points.
"""

import math
from collections import Counter
from fractions import Fraction as F

import numpy as np

from wht import (
    EllBounds, ModelParams, build_table, compare_oracle, instantiate_curve,
    local_data, solve_system, tr_compute, wgn_oracle,
)

params = ModelParams.make(m=1, r=0, u=[F(1, 2)], p=[F(1, 6), F(1, 10)],
                          q=[F(1, 5), F(1, 8)], T=6)
sd = solve_system(params)
curve = instantiate_curve(sd, 1e-3)
print("branchpoints:", np.round(curve.branchpoints, 3))

ld = local_data(curve, 0, 14)
print("involution residual:", ld.checks["involution"])

omega = tr_compute(curve, g_max=1, n_max=3, quadrature_check=True)
# each tensor is symmetric, so it stores its sorted multi-indices only; a
# multi-index stands for n! / prod(multiplicity!) orderings, all with its
# coefficient
for gn in [(0, 3), (1, 2)]:
    print(f"\npole-coefficient tensor of (g,n)={gn}, sorted entries:")
    for midx, coeff in sorted(omega.tensors[gn].items())[:6]:
        orderings = math.factorial(len(midx)) // math.prod(
            math.factorial(c) for c in Counter(midx).values())
        print(f"   {midx} x{orderings} -> {coeff:.6g}")
print("\nstored entries:", {gn: len(t) for gn, t in omega.tensors.items()})
print("records written by to_records:",
      {gn: len(rows) for gn, rows in omega.to_records().items()})
print("contour-quadrature cross-check:", omega.quadrature)

table = build_table(params, 6, EllBounds())
oracles = {gn: wgn_oracle(table, params, *gn)
           for gn in [(0, 1), (0, 2), (0, 3), (1, 1)]}
rng = np.random.default_rng(1)
samples = {gn: [tuple((3 + 4 * rng.random()) * np.exp(2j * np.pi * rng.random())
                      for _ in range(gn[1])) for _ in range(5)]
           for gn in oracles}
report = compare_oracle(omega, oracles, curve, samples, tol=1e-6)
for case, res in report["cases"].items():
    print(f"(g,n)=({case}): max relative deviation {res['max']:.2e}")
print("all cases pass:", report["pass"])
