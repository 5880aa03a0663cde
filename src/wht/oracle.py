"""Ground-truth weighted Hurwitz numbers.

Two fully independent routes compute the same numbers:

* exhaustive counting of factorisation tuples in the symmetric group, by a
  forward dynamic program over (partial product, set-partition join, key
  prefix) that tracks transitivity through the joins, and
* the character expansion of the grand generating function (Schur route).

The character side is one table per size d, the character table X_d of S_d
built by ribbon removal, with three consumers: `tau_schur`,
`hurwitz_character_table` and `wgn_via_characters` are integer matrix
products on X_d and the content weights of the shapes.

Everything downstream (spectral series, slice formulas, topological
recursion) is validated against the tables produced here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, lcm, prod

import numpy as np

from .model import EllBounds, ModelParams
from .ring import MPoly, TSeries, RingUsageError, _common

__all__ = [
    "ModelParams", "EllBounds", "HurwitzTable",
    "partitions", "cycle_type", "class_size", "character_value",
    "monotone_runs", "enumerate_factorisations", "enumeration_total",
    "build_table",
    "tau_schur", "tau_from_table", "hurwitz_character_table", "wgn_oracle",
]


# ---------------------------------------------------------------------------
# partitions and characters


@cache
def partitions(n: int) -> tuple:
    """All partitions of n, parts weakly decreasing, lexicographically sorted."""
    if n == 0:
        return ((),)
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(rest, maxpart), 0, -1):
            rec(rest - k, k, prefix + [k])

    rec(n, n, [])
    return tuple(sorted(out))


def cycle_type(perm) -> tuple:
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        parts.append(ln)
    return tuple(sorted(parts, reverse=True))


def z_lambda(lam) -> int:
    z = 1
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return z


def class_size(lam) -> int:
    return factorial(sum(lam)) // z_lambda(lam)


# Entries of the int64 character tables: |chi| <= sqrt(d!), and an entry of
# X_d sums at most d entries of a smaller table, so every partial sum stays
# below sqrt(d * d!).  d * d! < 2^126 holds up to d = 32.
_CHARACTER_MAX_D = 32


@cache
def _partition_index(d: int) -> dict:
    return {lam: i for i, lam in enumerate(partitions(d))}


@cache
def _ribbon_table(d: int) -> np.ndarray:
    """chi^lam(mu) in int64, lam (rows) and mu (columns) in partitions(d),
    by ribbon removal one column block at a time: for the mu with first part
    k, X_d[:, mu] = R_{d,k} X_{d-k}[:, mu minus mu_1], where R_{d,k}[lam,
    kappa] = (-1)^height when kappa is lam minus one k-ribbon, that is, one
    element b of the beta-set of lam moved down to a free b - k past
    `height` others."""
    if d > _CHARACTER_MAX_D:
        raise RingUsageError(f"character tables are int64, which holds them "
                             f"up to d = {_CHARACTER_MAX_D}, not {d}")
    if d == 0:
        return np.ones((1, 1), dtype=np.int64)
    parts = partitions(d)
    ribbons = {k: [] for k in range(1, d + 1)}     # k -> [(lam, kappa, sign)]
    for i, lam in enumerate(parts):
        n = len(lam)
        beta = {part + n - 1 - r for r, part in enumerate(lam)}
        for b in beta:
            for nb in set(range(b)) - beta:
                rest = sorted(beta - {b} | {nb}, reverse=True)
                kappa = tuple(x - n + 1 + r for r, x in enumerate(rest)
                              if x > n - 1 - r)
                ribbons[b - nb].append(
                    (i, kappa, (-1) ** sum(nb < x < b for x in beta)))
    X = np.zeros((len(parts), len(parts)), dtype=np.int64)
    for k, ribbon in ribbons.items():
        # the mu with first part k are adjacent in lexicographic order
        cols = [j for j, mu in enumerate(parts) if mu[0] == k]
        sub = _partition_index(d - k)
        rows, kappas, signs = zip(*ribbon)
        Y = _ribbon_table(d - k)[np.ix_([sub[kappa] for kappa in kappas],
                                        [sub[parts[j][1:]] for j in cols])]
        np.add.at(X[:, cols[0]:cols[-1] + 1], list(rows),
                  Y * np.array(signs)[:, None])
    return X


@cache
def _character_matrix(d: int) -> np.ndarray:
    """X_d as Python ints, so that every product with it is exact."""
    return _ribbon_table(d).astype(object)


def character_value(lam: tuple, mu: tuple) -> int:
    """Irreducible symmetric-group character chi^lam at the class mu, read
    from the character table."""
    if sum(lam) != sum(mu):
        raise RingUsageError("character needs |lam| == |mu|")
    index = _partition_index(sum(mu))
    if lam not in index or mu not in index:
        raise RingUsageError(f"character needs partitions, not {lam}, {mu}")
    return _character_matrix(sum(mu))[index[lam], index[mu]]


def hook_lengths(lam):
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    hooks = []
    for i, row in enumerate(lam):
        for j in range(row):
            hooks.append(row - j + cols[j] - i - 1)
    return hooks


def contents(lam):
    """Box contents (column - row) of a shape, row by row."""
    return [j - i for i, row in enumerate(lam) for j in range(row)]


# ---------------------------------------------------------------------------
# content-product weight of a shape


@lru_cache(maxsize=1 << 12)
def _content_functions(lam, K: int) -> tuple:
    """Elementary and complete symmetric functions of degrees up to K in the
    box contents of lam."""
    cs = [c for c in contents(lam) if c]
    e, h = [1] + [0] * min(K, len(cs)), [1] + [0] * K
    for c in cs:
        for k in range(len(e) - 1, 0, -1):
            e[k] += c * e[k - 1]
        for k in range(1, K + 1):
            h[k] += c * h[k - 1]
    return tuple(e), tuple(h)


def _shape_weights(d: int, params: ModelParams, ell_cap, v_cap):
    """The content weights of the shapes of size d, coefficient by
    coefficient: (ell, ell_exp, W) for every nonzero W, where W over
    partitions(d) is ell_exp! times the coefficient of u^ell v^ell_exp.  A
    numerator color gives e_l of the box contents, a denominator color
    (-1)^l h_l up to l = ell_cap, and the exponential weight (sum of
    contents)^k up to k = v_cap."""
    if params.r and ell_cap is None:
        raise RingUsageError("symbolic denominator weights need ell_cap")
    if params.has_exp and v_cap is None:
        raise RingUsageError("symbolic exponential weight needs v_cap")
    parts = partitions(d)
    eh = [_content_functions(lam, max(d - 1, ell_cap or 0)) for lam in parts]
    colors = [[e + (0,) * (d - len(e)) for e, _ in eh]] * params.m
    colors += [[[(-1) ** ln * x for ln, x in enumerate(h[:ell_cap + 1])]
                for _, h in eh]] * params.r
    if params.has_exp:
        colors.append([[sum(contents(lam)) ** k for k in range(v_cap + 1)]
                       for lam in parts])
    factors = [np.array(rows, dtype=object) for rows in colors]
    for ell in itertools.product(*(range(f.shape[1]) for f in factors)):
        W = np.prod([f[:, ln] for f, ln in zip(factors, ell)], axis=0)
        if W.any():
            yield ell[:params.M], ell[params.M] if params.has_exp else None, W


# ---------------------------------------------------------------------------
# symmetric group tables (cached per d)

# elements per block of the numpy work in this module: large enough to run at
# numpy speed, small enough that no transient array shows in peak memory
_CHUNK = 1 << 12


class SymmetricGroupTables:
    """Permutations of [d] as indices, with composition, inverse, cycle data,
    and set-partition joins, all as numpy lookup tables.

    Permutations are indexed in lexicographic order, set partitions in the
    lexicographic order of their restricted growth strings (blocks numbered
    by their smallest elements).  Tables are filled through integer codes,
    sum p[k] d^k for a permutation and sum s[k] k! for a growth string, each
    looked up in a dense code table.  Indices are int16 up to S_7, which
    halves the memory of the two square tables.
    """

    def __init__(self, d: int):
        self.d = d
        perms = list(itertools.permutations(range(d)))
        self.perms = perms
        self.n = len(perms)
        index = {p: i for i, p in enumerate(perms)}
        self.index = index
        self.id_idx = index[tuple(range(d))]
        idx = np.int16 if self.n <= np.iinfo(np.int16).max else np.int32

        P = np.array(perms, dtype=np.int64).reshape(self.n, d)
        P_inv = np.argsort(P, axis=1)
        radix = d ** np.arange(d, dtype=np.int64)
        perm_of_code = np.zeros(d ** d, dtype=idx)
        perm_of_code[P @ radix] = np.arange(self.n)
        # mul[a, b] = a after b, whose code is sum_v a(v) d^(b^-1(v))
        inv_radix = radix[P_inv].T
        mul = np.empty((self.n, self.n), dtype=idx)
        rows = max(1, _CHUNK // self.n)
        for a in range(0, self.n, rows):
            mul[a:a + rows] = perm_of_code[P[a:a + rows] @ inv_radix]
        self.mul = mul
        self.inv = perm_of_code[P_inv @ radix]

        # set partitions of [d] as restricted-growth strings
        parts = []
        def gen(prefix, mx):
            if len(prefix) == d:
                parts.append(tuple(prefix))
                return
            for v in range(mx + 2):
                gen(prefix + [v], max(mx, v))
        gen([0], 0) if d else parts.append(())
        self.partitions_rgs = parts
        self.part_index = {p: i for i, p in enumerate(parts)}
        self.nparts = len(parts)
        self.discrete_idx = self.part_index[tuple(range(d))]
        self.full_idx = self.part_index[(0,) * d]

        # pair_join[j, i, p]: p with the blocks of j and i merged.  Blocks
        # numbered after the absorbed one move down by one.
        R = np.array(parts, dtype=np.int64).reshape(self.nparts, d)
        fact = np.array([factorial(k) for k in range(d)], dtype=np.int64)
        part_of_code = np.zeros(max(factorial(d), 1), dtype=idx)
        part_of_code[R @ fact] = np.arange(self.nparts)
        pair_join = np.empty((d, d, self.nparts), dtype=idx)
        for j in range(d):
            for i in range(d):
                lo = np.minimum(R[:, j], R[:, i])[:, None]
                hi = np.maximum(R[:, j], R[:, i])[:, None]
                S = np.where(R == hi, lo, R)
                pair_join[j, i] = part_of_code[(S - ((S > hi) & (lo < hi))) @ fact]

        # join(a, b) = join(join(a, b'), {y, x}), where b' splits off b's last
        # element x that is not the smallest of its block and y precedes x
        # there; b' comes later in the order, so columns fill from the end
        join = np.empty((self.nparts, self.nparts), dtype=idx)
        join[:, self.discrete_idx] = np.arange(self.nparts)
        for b in range(self.nparts - 1, -1, -1):
            rgs = parts[b]
            x = max((k for k in range(1, d) if rgs[k] <= max(rgs[:k])),
                    default=None)
            if x is None:
                continue
            y = max(k for k in range(x) if rgs[k] == rgs[x])
            split = (rgs[:x] + (max(rgs[:x]) + 1,)
                     + tuple(v + 1 for v in rgs[x + 1:]))
            join[:, b] = pair_join[y, x, join[:, self.part_index[split]]]
        self.join = join

        # the cycles of a permutation: the join of the pairs {k, p(k)}
        cpart = np.full(self.n, self.discrete_idx, dtype=idx)
        for k in range(d):
            cpart = pair_join[k, P[:, k], cpart]
        self.cpart = cpart
        self.pair_part = {(j, i): int(pair_join[j, i, self.discrete_idx])
                          for j in range(d) for i in range(j + 1, d)}
        self.transpositions = [
            (index[_transposition(d, j, i)], self.pair_part[(j, i)], j, i)
            for i in range(d) for j in range(i)]

        self.types = list(partitions(d))
        type_index = {t: i for i, t in enumerate(self.types)}
        block_type = np.array(
            [type_index[tuple(sorted(Counter(p).values(), reverse=True))]
             for p in parts], dtype=idx)
        self.type_idx = block_type[cpart]
        self.ncycles = (R.max(axis=1, initial=-1) + 1).astype(idx)[cpart]


def _transposition(d, j, i):
    p = list(range(d))
    p[j], p[i] = p[i], p[j]
    return tuple(p)


@lru_cache(maxsize=8)
def _tables(d: int) -> SymmetricGroupTables:
    return SymmetricGroupTables(d)


# ---------------------------------------------------------------------------
# monotone runs


def monotone_runs(d: int, length: int):
    """Yield every monotone run of transpositions of the given length in S_d
    (0-indexed pairs (j, i), j < i, with weakly increasing i)."""
    if d < 1 or length < 0:
        raise RingUsageError("need d >= 1 and length >= 0")

    def rec(prefix, min_i):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for i in range(min_i, d):
            for j in range(i):
                yield from rec(prefix + [(j, i)], i)

    yield from rec([], 1)


def _run_distributions(tables: SymmetricGroupTables, max_len: int,
                       monotone: bool = True):
    """R[l][(pi, P)] = number of (monotone or free) runs of length l whose
    product is pi and whose transpositions join the blocks of P.

    Returned as dense int64 arrays over (perm index, partition index).
    """
    n, B = tables.n, tables.nparts
    dist0 = np.zeros((n, B), dtype=np.int64)
    dist0[tables.id_idx, tables.discrete_idx] = 1
    out = [dist0]
    if not monotone:
        cur = dist0
        for _ in range(max_len):
            nxt = np.zeros_like(cur)
            for (tidx, pidx, _j, _i) in tables.transpositions:
                rows = tables.mul[:, tidx]
                cols = tables.join[:, pidx]
                np.add.at(nxt, (rows[:, None], cols[None, :]), cur)
            out.append(nxt)
            cur = nxt
        return out
    # monotone: DP over the Jucys-Murphy index, appending (j, i) with the
    # largest i last
    H = [[None] * (tables.d + 1) for _ in range(max_len + 1)]
    for k in range(tables.d + 1):
        H[0][k] = dist0
    zero = np.zeros((n, B), dtype=np.int64)
    for ln in range(1, max_len + 1):
        H[ln][0] = zero
        H[ln][1] = zero
        for k in range(2, tables.d + 1):
            acc = H[ln][k - 1].copy()
            prev = H[ln - 1][k]
            if prev is not zero:
                i = k - 1
                for j in range(i):
                    tidx = tables.index[_transposition(tables.d, j, i)]
                    pidx = tables.pair_part[(j, i)]
                    rows = tables.mul[:, tidx]
                    cols = tables.join[:, pidx]
                    np.add.at(acc, (rows[:, None], cols[None, :]), prev)
            H[ln][k] = acc
        out.append(H[ln][tables.d])
    return out


# ---------------------------------------------------------------------------
# explicit factorisation tuples (reference objects; the production counting
# path compresses runs, this one does not)


class FactTuple:
    """One factorisation: two face permutations, the deficiency-weighted
    permutations, the monotone runs, and optionally a free run.  The ordered
    product must be the identity and every run weakly increasing in its
    larger entries."""

    __slots__ = ("sigma_m2", "sigma_m1", "sigmas", "runs", "exp_run")

    def __init__(self, sigma_m2, sigma_m1, sigmas, runs, exp_run=None):
        self.sigma_m2 = tuple(sigma_m2)
        self.sigma_m1 = tuple(sigma_m1)
        self.sigmas = tuple(tuple(s) for s in sigmas)
        self.runs = tuple(tuple(r) for r in runs)
        self.exp_run = tuple(exp_run) if exp_run is not None else None
        for run in self.runs:
            if any(j >= i for j, i in run):
                raise RingUsageError("transpositions must have j < i")
            tops = [i for _, i in run]
            if any(a > b for a, b in zip(tops, tops[1:])):
                raise RingUsageError("run is not monotone")
        if not self._product_is_identity():
            raise RingUsageError("tuple product is not the identity")

    def _word(self):
        d = len(self.sigma_m2)
        word = [self.sigma_m2, self.sigma_m1]
        if self.exp_run is not None:
            word += [_transposition(d, j, i) for j, i in self.exp_run]
        word += list(self.sigmas)
        for run in self.runs:
            word += [_transposition(d, j, i) for j, i in run]
        return word

    def _product_is_identity(self):
        d = len(self.sigma_m2)
        acc = tuple(range(d))
        for f in reversed(self._word()):
            acc = tuple(acc[f[k]] for k in range(d))
        return acc == tuple(range(d))

    def is_transitive(self) -> bool:
        d = len(self.sigma_m2)
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for s in (self.sigma_m2, self.sigma_m1) + self.sigmas:
            for k, v in enumerate(s):
                union(k, v)
        for run in self.runs + ((self.exp_run,) if self.exp_run else ()):
            for j, i in run:
                union(j, i)
        return len({find(x) for x in range(d)}) == 1

    def key(self):
        d = len(self.sigma_m2)
        ell = tuple(d - len(cycle_type(s)) for s in self.sigmas) + \
            tuple(len(r) for r in self.runs)
        return (cycle_type(self.sigma_m2), cycle_type(self.sigma_m1), ell,
                len(self.exp_run) if self.exp_run is not None else None,
                self.is_transitive())


def iter_fact_tuples(d: int, params: ModelParams, bounds: EllBounds):
    """Every factorisation tuple, fully materialised.  Exponentially slower
    than enumerate_factorisations; intended for cross-checks at d <= 3."""
    perms = list(itertools.permutations(range(d)))
    run_lists = []
    if params.r:
        runs = [list(monotone_runs(d, ln)) for ln in range(bounds.run_max + 1)]
        run_lists = [r for ln in runs for r in ln]
    exp_lists = None
    if params.has_exp:
        trans = [(j, i) for i in range(d) for j in range(i)]
        exp_lists = [()]
        layer = [()]
        for _ in range(bounds.exp_run_max or 0):
            layer = [run + (t,) for run in layer for t in trans]
            exp_lists += layer

    def compose_word(word):
        acc = tuple(range(d))
        for f in reversed(word):
            acc = tuple(acc[f[k]] for k in range(d))
        return acc

    frees = [perms] * (1 + params.m)
    frees += [run_lists] * params.r
    if params.has_exp:
        frees.insert(1, exp_lists)
    for combo in itertools.product(*frees):
        idx = 0
        sigma_m1 = combo[idx]; idx += 1
        exp_run = None
        if params.has_exp:
            exp_run = combo[idx]; idx += 1
        sigmas = combo[idx: idx + params.m]; idx += params.m
        runs = combo[idx:]
        word = [sigma_m1]
        if exp_run is not None:
            word += [_transposition(d, j, i) for j, i in exp_run]
        word += list(sigmas)
        for run in runs:
            word += [_transposition(d, j, i) for j, i in run]
        rest = compose_word(word)
        sigma_m2 = [0] * d
        for k, v in enumerate(rest):
            sigma_m2[v] = k
        yield FactTuple(tuple(sigma_m2), sigma_m1, sigmas, runs, exp_run)


# ---------------------------------------------------------------------------
# the Hurwitz table


KEY_FIELDS = ("lam", "mu", "ell", "ell_exp", "connected")


class HurwitzTable:
    """Exact tuple counts indexed by (lam, mu, ell-vector, exp-run length,
    connected flag).  Counts are raw nonnegative cardinalities over labeled
    points; signs and d! normalisation are applied at series-assembly time.
    """

    def __init__(self, m: int, r: int, has_exp: bool):
        self.m = m
        self.r = r
        self.has_exp = has_exp
        self.counts: dict = {}
        self.coverage: dict = {}   # d -> EllBounds used
        self._by_genus = None

    def add(self, key, count: int):
        if count:
            self.counts[key] = self.counts.get(key, 0) + int(count)
            self._by_genus = None

    def merge(self, other: "HurwitzTable"):
        for k, v in other.counts.items():
            self.add(k, v)
        self.coverage.update(other.coverage)

    def genus_numerator(self, key) -> int:
        lam, mu, ell, ell_exp, _ = key
        return sum(ell) + (ell_exp or 0) + 2 - len(lam) - len(mu)

    def _genus_index(self) -> dict:
        """{genus numerator 2g: [(key, count), ...]} of the connected keys in
        key order, built on first use after the last add."""
        if self._by_genus is None:
            index = {}
            for key, count in self.entries(connected=True):
                index.setdefault(self.genus_numerator(key), []).append((key, count))
            self._by_genus = index
        return self._by_genus

    def genus(self, key) -> int:
        gg = self.genus_numerator(key)
        if gg % 2:
            raise RingUsageError(f"odd genus numerator for key {key}")
        return gg // 2

    def entries(self, d=None, connected=None):
        for key in sorted(self.counts):
            lam = key[0]
            if d is not None and sum(lam) != d:
                continue
            if connected is not None and key[4] != connected:
                continue
            yield key, self.counts[key]

    def to_records(self):
        recs = []
        for key, count in sorted(self.counts.items()):
            lam, mu, ell, ell_exp, conn = key
            recs.append({
                "lambda": list(lam),
                "mu": list(mu),
                "ell": list(ell),
                "ell_exp": ell_exp,
                "connected": bool(conn),
                "genus": self.genus(key),
                "count": str(count),
            })
        return recs


def enumerate_factorisations(d: int, params: ModelParams,
                             bounds: EllBounds) -> HurwitzTable:
    """Exact counts of factorisation tuples for one symmetric-group size.

    A forward dynamic program over the free factors in word order: sigma_-1,
    the free run, sigma_0..sigma_{m-1}, the monotone runs.  A state is (partial
    product, join of the factors' partitions, key prefix) with its tuple
    count; each factor crosses the states with its choices, and equal states
    are summed.  Runs enter compressed to (product, connectivity join, length)
    with their multiplicities, which is lossless for every recorded statistic.
    The last factor closes the product with sigma_-2 = W^-1, which gives lam
    and, through the join reaching the one-block partition, transitivity.

    Counts are int64.  Their sum is checked against the exact tuple count
    `enumeration_total`; a mismatch means a count reached 2^63 and raises.
    """
    table = HurwitzTable(params.m, params.r, params.has_exp)
    table.coverage[d] = bounds
    if d < 1:
        raise RingUsageError("need d >= 1")
    run_max = bounds.run_max if params.r else 0
    exp_max = bounds.exp_run_max if params.has_exp else None
    if run_max < 0 or (exp_max is not None and exp_max < 0):
        return table
    tb = _tables(d)
    space = (2 * tb.n * tb.nparts * len(tb.types) * d ** params.m
             * (run_max + 1) ** params.r * (exp_max + 1 if params.has_exp else 1))
    if space >= 2 ** 63:
        raise RingUsageError(f"enumeration keys need {space.bit_length()} "
                             f"bits, more than int64 holds")
    axes = _axes(tb, params, run_max, exp_max)

    state = (np.array([tb.id_idx]), np.array([tb.discrete_idx]),
             np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    ncodes = 1
    for k, ax in enumerate(axes):
        ncodes *= ax[-1]
        keys, counts = _cross(tb, state, ax, ncodes, closing=k == len(axes) - 1)
        if k < len(axes) - 1:
            state = (keys // (tb.nparts * ncodes), keys // ncodes % tb.nparts,
                     keys % ncodes, counts)

    if sum(counts.tolist()) != enumeration_total(d, params, bounds):
        raise RingUsageError(f"tuple counts at size {d} overflow int64")
    for key, count in zip(keys.tolist(), counts.tolist()):
        # digits in word order: mu, [free run], deficiencies, run lengths
        code, digits = key >> 1, []
        for ax in reversed(axes):
            code, digit = divmod(code, ax[-1])
            digits.insert(0, digit)
        ell_exp = digits[1] if params.has_exp else None
        table.add((tb.types[code], tb.types[digits[0]],
                   tuple(digits[1 + params.has_exp:]), ell_exp, bool(key & 1)),
                  count)
    return table


def _axes(tb: SymmetricGroupTables, params: ModelParams, run_max, exp_max):
    """The free factors in word order, each as (perm indices, partition
    indices, key values, weights, key radix)."""
    perms = np.arange(tb.n)
    ones = np.ones(tb.n, dtype=np.int64)

    def compressed(dists):
        # the nonzero (product, join) entries of every length, one array each
        nz = [np.nonzero(dist) for dist in dists]
        lengths = np.repeat(np.arange(len(dists)), [len(pi) for pi, _ in nz])
        return (np.concatenate([pi for pi, _ in nz]),
                np.concatenate([p for _, p in nz]), lengths,
                np.concatenate([dist[i] for dist, i in zip(dists, nz)]))

    axes = [(perms, tb.cpart, tb.type_idx, ones, len(tb.types))]
    if params.has_exp:
        axes.append((*compressed(_run_distributions(tb, exp_max, monotone=False)),
                     exp_max + 1))
    axes += [(perms, tb.cpart, tb.d - tb.ncycles, ones, tb.d)] * params.m
    if params.r:
        axes += [(*compressed(_run_distributions(tb, run_max)),
                  run_max + 1)] * params.r
    return axes


def _cross(tb: SymmetricGroupTables, state, axis, ncodes, closing):
    """One factor of the dynamic program: every state times every choice,
    summed over equal keys.  A key is (W, join, code) in mixed radix, or
    (lam, code, connected) when the factor closes the product."""
    W, PJ, code, cnt = state
    pis, parts, keyvals, weights, radix = axis
    rows = max(1, _CHUNK // len(pis))
    keys_acc, counts_acc = [], []
    size = merged = 0
    for s in range(0, len(W), rows):
        # in-place arithmetic keeps one int64 block alive besides the counts
        w = tb.mul[W[s:s + rows, None], pis]
        pj = tb.join[PJ[s:s + rows, None], parts]
        if closing:
            conn = tb.join[pj, tb.cpart[w]] == tb.full_idx
            keys = tb.type_idx[w].astype(np.int64)
        else:
            keys = w.astype(np.int64)
            keys *= tb.nparts
            keys += pj
        del w, pj
        keys *= ncodes
        keys += code[s:s + rows, None] * radix
        keys += keyvals
        if closing:
            keys *= 2
            keys += conn
        k, v = _sum_equal(keys.ravel(), (cnt[s:s + rows, None] * weights).ravel())
        keys_acc.append(k)
        counts_acc.append(v)
        size += len(k)
        if size > max(_CHUNK, 2 * merged):
            k, v = _sum_equal(np.concatenate(keys_acc), np.concatenate(counts_acc))
            keys_acc, counts_acc = [k], [v]
            size = merged = len(k)
    return _sum_equal(np.concatenate(keys_acc), np.concatenate(counts_acc))


def _sum_equal(keys, counts):
    """The distinct keys, sorted, and the exact sum of the counts of each."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


def enumeration_total(d: int, params: ModelParams, bounds: EllBounds) -> int:
    """Exact number of tuples that `enumerate_factorisations` counts at size
    d: the product of the per-factor totals, d! for each permutation,
    sum_l C(d,2)^l for the free run and sum_l h_l(0..d-1) (the number of
    monotone runs of length l) for each monotone run."""
    total = factorial(d) ** (1 + params.m)
    if params.has_exp and bounds.exp_run_max is not None:
        q, top = d * (d - 1) // 2, bounds.exp_run_max + 1
        total *= top if q == 1 else (q ** top - 1) // (q - 1)
    if params.r:
        h = [1] + [0] * bounds.run_max      # h_l of the contents seen so far
        for c in range(1, d):
            for ln in range(1, bounds.run_max + 1):
                h[ln] += c * h[ln - 1]
        total *= sum(h) ** params.r
    return total


def build_table(params: ModelParams, d_max: int, bounds: EllBounds) -> HurwitzTable:
    table = HurwitzTable(params.m, params.r, params.has_exp)
    for d in range(1, d_max + 1):
        table.merge(enumerate_factorisations(d, params, bounds))
    return table


# ---------------------------------------------------------------------------
# tau function, two ways


def tau_schur(params: ModelParams, d_max: int, u_symbolic=False,
              ell_cap: int | None = None, v_cap: int | None = None) -> TSeries:
    """Schur expansion of the grand generating function, truncated at t^d_max:
    per size d, s(p)^T diag(W) s(q) with s(p) = X_d (p_mu / z_mu).

    Face weights beyond the configured degree caps are zero.  With symbolic
    u, W is each coefficient of `_shape_weights`.  Otherwise W is
    prod_i E(u_i) / prod_j E(u_j), E(x) = sum_l e_l(contents) x^l, times the
    complex exp(u_exp * sum of contents) when u_exp is set.
    """
    import cmath
    coeffs = [1] + [0] * d_max
    for d in range(1, d_max + 1):
        sp, Dp = _schur_numerators(d, params.p)
        sq, Dq = _schur_numerators(d, params.q)
        shapes = [k for k in range(len(sp)) if sp[k] and sq[k]]
        if not shapes:
            continue
        if u_symbolic:
            terms = {}
            for ell, ell_exp, W in _shape_weights(d, params, ell_cap, v_cap):
                num = (sp * sq) @ W
                if num:
                    mono = [(f"u{c}", e) for c, e in enumerate(ell) if e]
                    mono += [("v", ell_exp)] if ell_exp else []
                    terms[tuple(sorted(mono))] = Fraction(
                        num, Dp * Dq * factorial(ell_exp or 0))
            coeffs[d] = MPoly(terms)
            continue
        total = 0
        for k in shapes:
            lam = partitions(d)[k]
            e = _content_functions(lam, d - 1)[0]
            E = [sum(c * x ** ln for ln, c in enumerate(e)) for x in params.u]
            if not all(E[params.m:]):
                raise ZeroDivisionError(f"weight denominator vanishes on {lam}")
            w = prod(E[:params.m], start=Fraction(1)) / prod(E[params.m:])
            if params.has_exp:
                w = w * cmath.exp(params.u_exp * sum(contents(lam)))
            total = total + Fraction(sp[k], Dp) * Fraction(sq[k], Dq) * w
        coeffs[d] = total
    return TSeries(d_max, coeffs)


def _weight(nu, w):
    """Product of the face weights w over the parts of nu, 0 past the cap."""
    out = 1
    for part in nu:
        out = out * (w[part - 1] if part <= len(w) else 0)
    return out


def _schur_numerators(d: int, weights) -> tuple:
    """(s_lam(weights) * D over partitions(d), D): the Schur polynomials at
    power sums p_k = weights[k - 1], zero beyond the list, as the integer
    vector X_d (D p_mu / z_mu) with one common denominator D."""
    wn, Dw, _ = _common(weights)
    v = np.array([_weight(mu, wn) * Dw ** (d - len(mu))
                  * (factorial(d) // z_lambda(mu)) for mu in partitions(d)],
                 dtype=object)
    return _character_matrix(d) @ v, Dw ** d * factorial(d)


def hurwitz_character_table(d: int, params: ModelParams, ell_cap: int,
                            v_cap: int | None = None) -> dict:
    """Disconnected counts per key from the character expansion: the
    coefficient of u^ell (and v^ell_exp/ell_exp!) in
    |C_lam| |C_mu| / d! * sum_shape chi(lam) chi(mu) prod G(content), that
    is diag(|C|) X_d^T diag(W) X_d diag(|C|) / d! per ell-vector.

    Returns {(lam, mu, ell, ell_exp): signed integer}; the sign is
    (-1)^(sum of denominator run lengths).
    """
    parts, X = partitions(d), _character_matrix(d)
    sizes = np.array([class_size(mu) for mu in parts], dtype=object)
    counts = {(ell, ell_exp): np.outer(sizes, sizes) * (X.T @ (W[:, None] * X))
              for ell, ell_exp, W in _shape_weights(d, params, ell_cap, v_cap)}
    out = {}
    for a, lam in enumerate(parts):
        for b, mu in enumerate(parts):
            for (ell, ell_exp), C in counts.items():
                val, rest = divmod(C[a, b], factorial(d))
                if rest:
                    raise RingUsageError(
                        f"non-integer character-side count at {lam},{mu},{ell}")
                if val:
                    out[(lam, mu, ell, ell_exp)] = val
    return out


def tau_from_table(table: HurwitzTable, params: ModelParams, d_max: int,
                   connected=False, u_symbolic=False,
                   symbolic_pq=False) -> TSeries:
    """Assemble the (dis)connected generating series from enumerated counts:
    sign (-1)^(sum of run lengths), weight u^ell v^ell_exp / ell_exp!, divided
    by d!.  Keys that carry the same monomial are summed first, in the order
    of their first key, and each sum enters as one term."""
    groups = {}
    for key, count in table.entries(connected=True if connected else None):
        lam, mu, ell, ell_exp, _ = key
        d = sum(lam)
        if d > d_max:
            continue
        w = Fraction((-1) ** sum(ell[params.m:]) * count, factorial(d))
        if symbolic_pq:
            group = (d, ell, ell_exp, lam, mu)
        else:
            w = w * _weight(lam, params.p) * _weight(mu, params.q)
            if not w:
                continue
            group = (d, ell, ell_exp)
        groups[group] = groups.get(group, 0) + w
    coeffs = [0] * (d_max + 1)
    if not connected:
        coeffs[0] = 1
    for (d, ell, ell_exp, *pq), w in groups.items():
        mono = Counter()
        if symbolic_pq:
            mono.update(f"p{part}" for part in pq[0])
            mono.update(f"q{part}" for part in pq[1])
        for c, e in enumerate(ell):
            if e:
                if u_symbolic:
                    mono[f"u{c}"] = e
                else:
                    w = w * params.u[c] ** e
        if ell_exp:
            if u_symbolic:
                mono["v"] = ell_exp
            else:
                w = w * params.u_exp ** ell_exp
            w = w * Fraction(1, factorial(ell_exp))
        if mono:
            w = MPoly({tuple(sorted(mono.items())): w} if w else None)
        coeffs[d] = coeffs[d] + w
    return TSeries(d_max, coeffs)


# ---------------------------------------------------------------------------
# genus-graded character route: correlators without enumeration
#
# Substituting p -> p/N, q -> q/N, u -> u N makes the connected genus-g part
# of log tau the coefficient of N^(2g-2).  Per size d, with X_d the character
# table of S_d and W_lam the product of G(c N) over the boxes of lam,
#
#   tau-hat_d = sum_mu p_mu / z_mu N^-l(mu) C_d[mu],   C_d = X_d^T B,
#   B_lam = W_lam s_lam(q/N):
#
# one integer matrix product per d, shared by tau-hat and every face-weight
# derivative, which contract C_d with their own vector over mu.  A row
# N^-l(mu) C_d[mu] counts possibly disconnected surfaces: its N-exponents
# are even and at least -2d, and only those up to top + 2(T - d) reach
# [N^top] at order T.  So a degree-d row keeps N^(2(i-d)) at index
# i < L = top/2 + T + 1, rows multiply as power series in i truncated at L,
# and every kept entry is exact.  With u = a/Du and N = Du nu all weights
# are integers, and a degree-d row is an integer row over Delta^d.


def _content_row(lam, a, params: ModelParams, K: int) -> np.ndarray:
    """prod over boxes of G(c nu) to nu^K for the integer weights a, times K!
    when the exponential weight (last in a) is on."""
    e, h = _content_functions(lam, K)
    factors = [[x * ai ** k for k, x in enumerate(e)] for ai in a[:params.m]]
    factors += [[x * (-aj) ** k for k, x in enumerate(h)]
                for aj in a[params.m:params.M]]
    if params.has_exp:
        x = a[params.M] * sum(contents(lam))
        factors.append([x ** k * (factorial(K) // factorial(k))
                        for k in range(K + 1)])
    w = np.array([1] + [0] * K, dtype=object)
    for f in factors:
        w = np.convolve(w, np.array(f, dtype=object))[:K + 1]
    return w


def _stack_weights(mu, depth: int, pn) -> dict:
    """{dv: weight} over the ordered removals dv of `depth` parts of mu, that
    is d^depth p_mu / dp_dv: multiplicity factors times the weights of the
    parts that stay.  Zero weights are left out."""
    out = {}

    def rec(rest, dv, w):
        if len(dv) == depth:
            w = w * _weight(rest, pn)
            if w:
                out[dv] = w
            return
        for part in set(rest):
            k = rest.index(part)
            rec(rest[:k] + rest[k + 1:], dv + (part,), w * rest.count(part))

    rec(tuple(mu), (), 1)
    return out


def _graded_tau_family(params: ModelParams, d_max: int, L: int, n: int):
    """Per size b, the rows z_mu^-1 N^-l(mu) C_b[mu] as one integer matrix
    over Delta^b, for the mu that keep a nonzero face weight after at most n
    derivatives.  Returns (Delta, Dp, Du, pn, {b: (mus, matrix)}), where
    p = pn / Dp and u = a / Du."""
    a, Du, _ = _common(list(params.u) + [params.u_exp] * params.has_exp)
    pn, Dp, _ = _common(params.p)
    qn, Dq, _ = _common(params.q)
    K = 2 * L - 2
    omega = factorial(K) if params.has_exp else 1
    Delta = omega * lcm(*range(1, d_max + 1)) ** 2 * Dp * Dq * Du ** 2
    rows = {}
    for b in range(1, d_max + 1):
        parts, X = partitions(b), _character_matrix(b)
        qcols = [k for k, nu in enumerate(parts) if _weight(nu, qn)]
        mus = [k for k, mu in enumerate(parts)
               if any(_stack_weights(mu, s, pn) for s in range(n + 1))]
        if not qcols or not mus:
            continue
        # s_lam(q/N) over Qb, nu-exponents -b..-1 at columns 0..b-1
        Qb = (Dq * Du) ** b * factorial(b)
        G = np.zeros((len(qcols), b), dtype=object)
        for r, k in enumerate(qcols):
            nu = parts[k]
            G[r, b - len(nu)] = _weight(nu, qn) * (
                Qb // ((Dq * Du) ** len(nu) * z_lambda(nu)))
        S = X[:, qcols] @ G
        B = np.array([np.convolve(_content_row(lam, a, params, K), S[k])[:K + 1]
                      for k, lam in enumerate(parts)], dtype=object)
        C = X[:, mus].T @ B
        # C[mu] at column j holds nu^(j - b); keep the even exponents of
        # N^-l(mu) C[mu], from -2b up
        mat = np.zeros((len(mus), L), dtype=object)
        for r, k in enumerate(mus):
            mu = parts[k]
            s = len(mu) - b
            i0 = (1 - s) // 2
            col = C[r, 2 * i0 + s::2][:L - i0]
            mat[r, i0:i0 + len(col)] = col * (
                Delta ** b // (omega * Qb * (Dp * Du) ** len(mu) * z_lambda(mu)))
        rows[b] = ([parts[k] for k in mus], mat)
    return Delta, Dp, Du, pn, rows


def _graded_series_log_derivs(params, d_max, boundary_degrees, g):
    """[N^(2g-2)] of the first (and second, when two boundary degree lists are
    given) face-weight derivatives of log tau-hat, as plain t-coefficients."""
    n, T = len(boundary_degrees), d_max
    keys = list(itertools.product(*boundary_degrees))
    if T < 1:
        return {dv: [0] * (T + 1) for dv in keys}
    # rows keep N^(2(i-d)) for i < L; a ratio tau_i / tau is read up to N^2g
    L = g + T + n - 1
    Delta, Dp, Du, pn, rows = _graded_tau_family(params, T, L, n)

    # tau-hat and its series inverse, rows over Delta^k
    tau = [np.zeros(L, dtype=object) for _ in range(T + 1)]
    tau[0][0] = 1
    for b, (mus, mat) in rows.items():
        for mu, row in zip(mus, mat):
            tau[b] = tau[b] + _weight(mu, pn) * row
    inv = [tau[0]]
    for k in range(1, T + 1):
        inv.append(-sum(np.convolve(tau[j], inv[k - j])[:L]
                        for j in range(1, k + 1)))

    # row times inverse at the indices read: the target g - 1 + a at order
    # a, for n = 2 the ratio window a - 1 .. a + g (exponents -2 .. 2g)
    width, start = (1, g - 1) if n == 1 else (g + 2, -1)
    ratio = {i: np.zeros(T * width, dtype=object)
             for i in set(itertools.chain(*boundary_degrees))}
    second = {dv: np.zeros(T, dtype=object) for dv in keys} if n == 2 else {}
    for b, (mus, mat) in rows.items():
        J = np.zeros((L, (T - b + 1) * width), dtype=object)
        for a in range(b, T + 1):
            for x in range(width):
                i = a + start + x
                J[:i + 1, (a - b) * width + x] = inv[a - b][i::-1]
        for mu, prow in zip(mus, mat @ J):
            for (i,), w in _stack_weights(mu, 1, pn).items():
                if i in ratio:
                    ratio[i][(b - 1) * width:] += w * prow
            for dv, w in (_stack_weights(mu, 2, pn) if n == 2 else {}).items():
                if dv in second:
                    second[dv][b - 1:] += w * prow[g::width]
    if n == 1:
        nums = {dv: ratio[dv[0]] for dv in keys}
    else:
        # d2 log tau = tau_ij / tau - (tau_i / tau)(tau_j / tau)
        nums = second
        order = {i: r for r, i in enumerate(ratio)}
        R = np.array([row.reshape(T, width) for row in ratio.values()])
        for k in range(2, T + 1):
            M = sum(R[:, a - 1] @ R[:, k - a - 1, ::-1].T for a in range(1, k))
            for (i, j), num in nums.items():
                num[k - 1] -= M[order[i], order[j]]
    # back to N, [N^e] = Du^-e [nu^e], with the Dp of each derivative
    e = 2 * g - 2
    top, bottom = Dp ** n * Du ** max(-e, 0), Du ** max(e, 0)
    return {dv: [0] + [Fraction(v * top, Delta ** k * bottom) if v else 0
                       for k, v in enumerate(num, start=1)]
            for dv, num in nums.items()}


def wgn_via_characters(params: ModelParams, d_max: int, g: int,
                       n: int) -> TSeries:
    """Connected correlator series from the character expansion and a formal
    logarithm, no enumeration involved.  Supports one or two boundaries; any
    genus.  Fully independent of the factorisation-counting path (shares only
    the character values), so the two oracles cross-check each other."""
    if n not in (1, 2):
        raise RingUsageError("character route implemented for n in {1, 2}")
    data = _graded_series_log_derivs(params, d_max, [range(1, d_max + 1)] * n, g)
    coeffs = [MPoly() for _ in range(d_max + 1)]
    for dv, series in data.items():
        mark = MPoly.var("xb1", dv[0] + 1, dv[0])
        if n == 2:
            mark = mark * MPoly.var("xb2", dv[1] + 1, dv[1])
        for d, c in enumerate(series):
            if c:
                coeffs[d] = coeffs[d] + mark * c
    return TSeries(d_max, coeffs)


# ---------------------------------------------------------------------------
# rooting operator / correlators


def wgn_oracle(table: HurwitzTable, params: ModelParams, g: int, n: int,
               d_max: int | None = None) -> TSeries:
    """Correlator series with n boundaries at genus g, from connected counts.

    Rooting replaces n face-weight factors (with multiplicity) by marked
    boundary monomials i * xb_j^(i+1); surviving internal faces must respect
    the degree caps.  Coefficients are polynomials in xb1..xbn.

    The keys come from the table's genus index, so a call reads its own
    genus only.  A key's weight (-1)^(run lengths) count q_mu u^ell
    v^ell_exp / (ell_exp! d!) is one integer numerator over the integer
    denominator d! prod q_den prod u_den^ell v_den^ell_exp ell_exp!;
    numerators are summed per (lambda, denominator), and each lambda gets
    one Fraction.  Each ordered removal of n parts of lambda (`_removals`)
    adds its share to the coefficient of its own monomial.
    """
    dcov = sorted(table.coverage)
    if d_max is None:
        d_max = dcov[-1] if dcov else 0
    if not dcov or d_max > dcov[-1]:
        raise RingUsageError("requested order beyond table coverage")
    # weights are int or Fraction, and both have numerator and denominator
    q, v = params.q, params.u_exp
    nums = {}                   # lambda -> {denominator: numerator}
    for key, count in table._genus_index().get(2 * g, ()):
        lam, mu, ell, ell_exp, _ = key
        d = sum(lam)
        if d > d_max or max(mu) > len(q):
            continue
        num, den = (-1) ** sum(ell[params.m:]) * count, factorial(d)
        for part in mu:
            num, den = num * q[part - 1].numerator, den * q[part - 1].denominator
        for uc, e in zip(params.u, ell):
            if e:
                num, den = num * uc.numerator ** e, den * uc.denominator ** e
        if ell_exp:
            num *= v.numerator ** ell_exp
            den *= v.denominator ** ell_exp * factorial(ell_exp)
        if num:
            by_den = nums.setdefault(lam, {})
            by_den[den] = by_den.get(den, 0) + num
    coeffs = [{} for _ in range(d_max + 1)]
    for lam, by_den in nums.items():
        D = lcm(*by_den)
        w = Fraction(sum(num * (D // den) for den, num in by_den.items()), D)
        if not w:
            continue
        acc = coeffs[sum(lam)]
        for mono, c, rest in _removals(lam, n):
            for part, e in rest:
                c = c * (params.p[part - 1] ** e if part <= params.D1 else 0)
            if not c:
                continue
            # a monomial whose sum cancels leaves the dict and re-enters at
            # the end, so term order is that of a term-by-term sum
            s = acc.get(mono, 0) + w * c
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
    return TSeries(d_max, [MPoly(acc) for acc in coeffs])


@cache
def _removals(lam, n) -> tuple:
    """The ordered removals of n parts of lam, depth first over the distinct
    parts in increasing order: the monomial prod_j xb_j^(i_j+1) of the
    removed parts i_1..i_n, the integer weight prod_j mult_j i_j (mult_j the
    multiplicity of i_j before its removal), and the parts left, as
    (part, multiplicity) pairs, that become internal-face weights."""
    out = []

    def rec(j, mult, mono, c):
        if j > n:
            out.append((tuple(sorted(mono)), c,
                        tuple((part, e) for part, e in mult.items() if e)))
            return
        for part in sorted(mult):
            if mult[part]:
                rest = dict(mult)
                rest[part] -= 1
                rec(j + 1, rest, mono + ((f"xb{j}", part + 1),),
                    c * mult[part] * part)

    rec(1, Counter(lam), (), 1)
    return tuple(out)
