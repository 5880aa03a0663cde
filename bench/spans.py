"""In-memory spans and counters recorded around the public functions of wht.

Nothing in wht itself is changed: `install` replaces each listed function by a
wrapper in every wht module that holds a reference to it, because `wht.verify`
and `wht.cli` import names directly and look them up in their own globals.
The ring layer gets counting wrappers only, since its methods run thousands
of times per job.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# metric stem -> (defining module, function names); all names under one stem
# add to the same per-layer time
SPANS = {
    "oracle.tables": ("wht.oracle", ["SymmetricGroupTables"]),
    "oracle.build_table": ("wht.oracle", ["build_table"]),
    "oracle.tau": ("wht.oracle", ["tau_schur", "tau_from_table"]),
    "oracle.characters": ("wht.oracle", ["wgn_via_characters"]),
    "oracle.wgn_oracle": ("wht.oracle", ["wgn_oracle"]),
    "spectral.solve": ("wht.spectral", ["solve_system"]),
    "spectral.Z": ("wht.spectral", ["compute_Z"]),
    "spectral.w01": ("wht.spectral", ["w01"]),
    "spectral.w02": ("wht.spectral", ["w02"]),
    "spectral.other": ("wht.spectral", [
        "assemble_curve", "formal_branchpoints", "insertion_identity_sides",
        "solve_bulk_approximation", "critical_t"]),
    "slices.tilde": ("wht.slices", ["tilde_transform"]),
    "slices.w01_bijective": ("wht.slices", ["w01_bijective"]),
    "slices.w02_annular": ("wht.slices", ["w02_annular"]),
    "toprec.instantiate": ("wht.toprec", ["instantiate_curve"]),
    "toprec.local_data": ("wht.toprec", ["local_data"]),
    "toprec.tr": ("wht.toprec", ["tr_compute"]),
    "toprec.compare": ("wht.toprec", ["compare_oracle"]),
}

# counter name -> (class name in wht.ring, method); aliases such as
# `__rmul__ = __mul__` are the same function and are counted with it
RING_COUNTS = {
    "ring.mpoly_mul.calls": ("MPoly", "__mul__"),
    "ring.mpoly_add.calls": ("MPoly", "__add__"),
    "ring.tseries_mul.calls": ("TSeries", "__mul__"),
    "ring.tseries_invert.calls": ("TSeries", "invert"),
    "ring.zlaurent_mul.calls": ("ZLaurent", "mul"),
    "ring.zlaurent_invert.calls": ("ZLaurent", "invert"),
}

# every counter a job records: ring calls, and sizes set by the after-hooks
COUNTERS = list(RING_COUNTS) + [
    "oracle.table_keys", "spectral.Z_terms", "spectral.coef_bits.max",
    "toprec.tensors", "toprec.tensor_entries", "toprec.condition.max"]

WHT_MODULES = ("wht", "wht.oracle", "wht.ring", "wht.spectral", "wht.slices",
               "wht.toprec", "wht.verify", "wht.config", "wht.cli")


class Tracer:
    """Spans as [name, start, end, parent index, job] plus per-job counters.

    `job` is set by the caller before each job; work done outside a job is
    recorded under the job "setup".
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(Counter)
        self.job = "setup"
        self.added: dict = defaultdict(Counter)
        self._seen_Z: dict = {}

    def set_job(self, job):
        self.job = job
        self._seen_Z = {}

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None,
                    self.stack[-1] if self.stack else -1, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = perf_counter()
            if after is not None:
                after(self.counts[self.job], out)
            return out

        return traced

    def timed(self, name, fn):
        """Wall time of each call, kept beside the spans: the call's own
        spans still count as self time of their layers."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_time(self.job, name(*args, **kwargs), perf_counter() - t)

        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.job][name] += 1
            return fn(*args, **kwargs)

        return counted

    def add_time(self, job, name, seconds):
        """Time measured outside the spans: a wrapped call's wall time, or
        the self times a child process reports."""
        self.added[job][name] += seconds

    def self_times(self) -> dict:
        """{job: {span name: seconds}} with each span's children subtracted."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(Counter)
        for job, times in self.added.items():
            out[job].update(times)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[job][name] += end - start - child[i]
        return out

    def after_Z(self, counts, Z):
        # compute_Z caches its result on the SpectralData; size it once
        if id(Z) in self._seen_Z:
            return
        self._seen_Z[id(Z)] = Z
        terms, bits = series_size(Z)
        counts["spectral.Z_terms"] += terms
        counts["spectral.coef_bits.max"] = max(
            counts["spectral.coef_bits.max"], bits)


def series_size(ts):
    """Monomial count and largest numerator/denominator bit length of a
    TSeries whose coefficients are scalars or MPoly."""
    terms = bits = 0
    for c in ts.coeffs:
        scalars = c.terms.values() if hasattr(c, "terms") else [c]
        for v in scalars:
            if v == 0:
                continue
            terms += 1
            if isinstance(v, (int, Fraction)):
                bits = max(bits, abs(v.numerator).bit_length(),
                           v.denominator.bit_length())
    return terms, bits


def _after_table(counts, table):
    counts["oracle.table_keys"] += len(table.counts)


def _after_tr(counts, omega):
    counts["toprec.tensors"] += len(omega.tensors)
    counts["toprec.tensor_entries"] += sum(len(t) for t in omega.tensors.values())
    counts["toprec.condition.max"] = max(
        [counts["toprec.condition.max"], *omega.condition.values()])


def _replace_everywhere(orig, new):
    for modname in WHT_MODULES:
        mod = sys.modules[modname]
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap the listed wht functions for the life of this process."""
    for modname in WHT_MODULES:
        importlib.import_module(modname)
    after = {"oracle.build_table": _after_table, "spectral.Z": tracer.after_Z,
             "toprec.tr": _after_tr}
    for stem, (modname, names) in SPANS.items():
        mod = sys.modules[modname]
        for fname in names:
            orig = getattr(mod, fname)
            _replace_everywhere(orig, tracer.wrap(stem, orig, after.get(stem)))
    verify = sys.modules["wht.verify"]
    verify.run_suite = tracer.timed(lambda name, cfg=None: f"verify.{name}",
                                    verify.run_suite)
    ring = sys.modules["wht.ring"]
    for counter, (clsname, meth) in RING_COUNTS.items():
        cls = getattr(ring, clsname)
        orig = vars(cls)[meth]
        wrapped = tracer.count(counter, orig)
        for attr, val in list(vars(cls).items()):
            if val is orig:
                setattr(cls, attr, wrapped)
