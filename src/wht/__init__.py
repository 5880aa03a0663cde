"""Weighted Hurwitz number engine.

Layers, each validated against the one below:

* ``wht.oracle``   -- exact counts by symmetric-group enumeration and by the
                      character expansion (the ground truth),
* ``wht.spectral`` -- the coupled Laurent-polynomial system, disk and cylinder
                      series, ramification data,
* ``wht.slices``   -- lattice-path cross-checks for polynomial weights,
* ``wht.toprec``   -- numeric Eynard-Orantin recursion on the instantiated
                      curve,
* ``wht.verify``   -- every structural identity packaged as a named check,
* ``wht.cli``      -- the ``wht`` command-line driver.
"""

from .model import AssumptionViolation, EllBounds, ModelParams
from .oracle import (
    HurwitzTable, build_table, character_value, enumerate_factorisations,
    monotone_runs, tau_from_table, tau_schur, wgn_oracle, wgn_via_characters,
)
from .ring import MPoly, TSeries, ZLaurent, divided_difference
from .slices import (
    TildeData, path_coefficient, tilde_transform, w01_bijective, w02_annular,
)
from .spectral import (
    BranchpointSet, SpectralData, assemble_curve, compute_Z, critical_t,
    formal_branchpoints, initial_ramification, solve_system, w01, w02,
)
from .toprec import (
    NumericCurve, OmegaSet, alpha0_curve, compare_oracle, instantiate_curve,
    local_data, tr_compute,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "EllBounds", "ModelParams",
    "HurwitzTable", "build_table", "character_value",
    "enumerate_factorisations", "monotone_runs", "tau_from_table",
    "tau_schur", "wgn_oracle", "wgn_via_characters",
    "MPoly", "TSeries", "ZLaurent", "divided_difference",
    "TildeData", "path_coefficient", "tilde_transform", "w01_bijective",
    "w02_annular",
    "BranchpointSet", "SpectralData", "assemble_curve", "compute_Z",
    "critical_t", "formal_branchpoints", "initial_ramification",
    "solve_system", "w01", "w02",
    "NumericCurve", "OmegaSet", "alpha0_curve", "compare_oracle",
    "instantiate_curve", "local_data", "tr_compute",
]
