"""Seeded inputs, jobs and output checks of the benchmark's three workloads.

The seed changes weight values only.  Shapes (m, r, D1, D2, T, expansion
depth) are fixed per workload, because cost depends steeply on them; see
README.md for the measurements that fixed them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# the engine is called as `wht.<name>` so that the spans that spans.install
# puts on the package's attributes see these calls
import wht
from wht import AssumptionViolation, EllBounds, ModelParams, TSeries
from wht.config import KNOWN_TASKS, load_config
from wht.oracle import character_value, partitions
from wht.verify import tr_sample_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ten small rationals in (0.46, 0.91) whose numerators and denominators have
# the same few bits.  Exact cost follows coefficient bit sizes: with all
# a/b, b < 10, the T = 12 job time varied by 19% (IQR/median) over 8 seeds,
# with this pool by 4.5%, about the machine's own run-to-run noise.
POOL = sorted({Fraction(a, b) for b in (11, 13) for a in range(6, 11)})

T_VALUE = 1e-3
TR_TOL = 1e-6
ORACLE_CASES = ((0, 1), (0, 2), (0, 3), (1, 1))
COMMAND_TIMEOUT_S = 150


@dataclass
class Outcome:
    ok: bool
    digest: str | None = None
    why: str = ""
    # traced cli only: {"times": {stem: s}, "counts": {name: n}} from children
    layers: dict = field(default_factory=dict)


@dataclass
class State:
    models: list
    redrawn: int
    data: dict
    reference: str | None = None     # digest of the first passing job


def draw_model(rng: random.Random, m: int, r: int, T: int) -> ModelParams:
    """u, p, q distinct from POOL; denominator colors get negative weights."""
    v = rng.sample(POOL, m + r + 4)
    return ModelParams.make(m, r, u=v[:m] + [-x for x in v[m:m + r]],
                            p=v[m + r:m + r + 2], q=v[m + r + 2:], T=T)


def draw_curve_model(rng: random.Random, T: int, depth: int):
    """A (1,0) model whose curve at T_VALUE meets the recursion's analytic
    assumptions; draws outside that domain are redrawn and counted."""
    redrawn = 0
    while True:
        params = draw_model(rng, 1, 0, T)
        try:
            curve = wht.instantiate_curve(wht.solve_system(params), T_VALUE)
            for i in range(len(curve.branchpoints)):
                wht.local_data(curve, i, depth)
            return params, redrawn
        except AssumptionViolation:
            redrawn += 1


def model_record(p: ModelParams) -> dict:
    return {"m": p.m, "r": p.r, "T": p.T, "u": [str(x) for x in p.u],
            "p": [str(x) for x in p.p], "q": [str(x) for x in p.q]}


def perturbed(p: ModelParams) -> ModelParams:
    """The same model with one face weight off by 1/97: a wrong reference."""
    return ModelParams.make(p.m, p.r, u=p.u, p=p.p,
                            q=(p.q[0] + Fraction(1, 97),) + p.q[1:], T=p.T)


def sha(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def warm_caches(d_max: int):
    for d in range(1, d_max + 1):
        for lam in partitions(d):
            for mu in partitions(d):
                character_value(lam, mu)


def box(g_max: int, n_max: int) -> list:
    """Every stable (g, n) with g <= g_max and n <= n_max."""
    return [(g, n) for g in range(g_max + 1) for n in range(1, n_max + 1)
            if 2 * g - 2 + n >= 1]


class Workload:
    """One job = `job(state, tracer)`; `run_job` adds the digest check that
    every job of a run reproduces the first job's outputs exactly."""

    def peak_rss_kb(self, st: State) -> int:
        """Peak resident memory of the process that did the work."""
        # ru_maxrss is in KiB on Linux
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def after_run(self, st: State, tracer) -> tuple:
        """Work after the timed phase: (extra metrics, problems found)."""
        return {}, []

    def run_job(self, st: State, tracer=None) -> Outcome:
        out = self.job(st, tracer)
        if out.ok:
            if st.reference is None:
                st.reference = out.digest
            elif out.digest != st.reference:
                out.ok = False
                out.why = "outputs differ from the first job of this run"
        return out


class ExactSeries(Workload):
    """Exact series at T = 12: spectral/ring carry nearly all the work."""

    T = 12
    CHECK_ORDER = 5

    def setup(self, seed: int, workdir: Path) -> State:
        rng = random.Random(seed)
        a = draw_model(rng, 2, 1, self.T)
        b = draw_model(rng, 2, 0, self.T)
        warm_caches(self.CHECK_ORDER + 1)
        return State(models=[model_record(a), model_record(b)], redrawn=0,
                     data={"a": a, "b": b, "oracle_a": a})

    def job(self, st: State, tracer=None) -> Outcome:
        a, b = st.data["a"], st.data["b"]
        sda = wht.solve_system(a)
        za, da, ca = wht.compute_Z(sda), wht.w01(sda), wht.w02(sda)
        sdb = wht.solve_system(b)
        zb, db, cb = wht.compute_Z(sdb), wht.w01(sdb), wht.w02(sdb)
        td = wht.tilde_transform(sdb, b)
        bad = []
        if wht.w01_bijective(td) != db:
            bad.append("(2,0) disk != w01_bijective")
        if wht.w02_annular(td) != cb:
            bad.append("(2,0) cylinder != w02_annular")
        k = self.CHECK_ORDER
        ref = st.data["oracle_a"]
        disk = TSeries(k, [c.rename({"xb": "xb1"}) if hasattr(c, "rename")
                           else c for c in da.coeffs[:k + 1]])
        if disk != wht.wgn_via_characters(ref, k, 0, 1):
            bad.append(f"(2,1) disk != wgn_via_characters through t^{k}")
        if TSeries(k, ca.coeffs[:k + 1]) != wht.wgn_via_characters(ref, k, 0, 2):
            bad.append(f"(2,1) cylinder != wgn_via_characters through t^{k}")
        digest = sha(repr(c) for s in (za, da, ca, zb, db, cb) for c in s.coeffs)
        return Outcome(not bad, digest, "; ".join(bad))


class TrDeep(Workload):
    """Numeric recursion on the box g <= 2, n <= 3: toprec carries the work."""

    T = 6
    D_MAX = 6
    G_MAX, N_MAX = 2, 3
    # the expansion depth tr_compute picks for this box (depth_margin 4), so
    # its own local_data calls hit the curve's cache
    DEPTH = 6 * G_MAX - 2 + 2 * (N_MAX + 2) + 4
    TARGETS = box(G_MAX, N_MAX)

    def setup(self, seed: int, workdir: Path) -> State:
        params, redrawn = draw_curve_model(random.Random(seed), self.T, self.DEPTH)
        # counts depend on the shape only; weights enter in wgn_oracle
        table = wht.build_table(params, self.D_MAX, EllBounds())
        samples = {gn: tr_sample_points(gn[1]) for gn in ORACLE_CASES}
        return State(models=[model_record(params)], redrawn=redrawn,
                     data={"params": params, "oracle_params": params,
                           "table": table, "samples": samples})

    def job(self, st: State, tracer=None) -> Outcome:
        params = st.data["params"]
        curve = wht.instantiate_curve(wht.solve_system(params), T_VALUE)
        for i in range(len(curve.branchpoints)):
            wht.local_data(curve, i, self.DEPTH)
        omega = wht.tr_compute(curve, self.G_MAX, self.N_MAX, targets=self.TARGETS)
        ref = st.data["oracle_params"]
        oracles = {gn: wht.wgn_oracle(st.data["table"], ref, *gn)
                   for gn in ORACLE_CASES}
        rep = wht.compare_oracle(omega, oracles, curve, st.data["samples"], tol=TR_TOL)
        failed = [k for k, c in rep["cases"].items() if not c.get("pass", True)]
        return Outcome(rep["pass"], tensor_digest(omega),
                       f"compare_oracle failed on {failed}" if failed else "")


def tensor_digest(omega) -> str:
    """Digest of the tensors quantised to 1e-9 of each tensor's largest
    entry, so that round-off noise in near-zero entries cannot change it."""
    parts = []
    for gn, tensor in sorted(omega.tensors.items()):
        scale = max((abs(v) for v in tensor.values()), default=1.0) or 1.0
        for midx, v in sorted(tensor.items()):
            q = v / scale
            parts.append(f"{gn} {midx} {round(q.real, 9) + 0.0:.9f} "
                         f"{round(q.imag, 9) + 0.0:.9f}")
    return sha(parts)


class Cli(Workload):
    """Four fresh `python -m wht.cli` processes per job on the README shape."""

    COMMANDS = ("table", "curve", "tr", "verify")
    T = 6
    # expansion depth of `wht tr` at g_max = 1, n_max = 3, depth_margin 4
    DEPTH = 6 * 1 - 2 + 2 * (3 + 2) + 4

    def setup(self, seed: int, workdir: Path) -> State:
        params, redrawn = draw_curve_model(random.Random(seed), self.T, self.DEPTH)
        rec = model_record(params)
        config = {
            "model": {k: rec[k] for k in ("m", "r", "u", "p", "q", "T")},
            "oracle": {"d_max": 6, "connected": False, "run_max": 6},
            "toprec": {"t_value": [T_VALUE, 0.0], "g_max": 1, "n_max": 3,
                       "tol": TR_TOL},
            "tasks": list(KNOWN_TASKS),
            "output": {"dir": "out", "formats": ["json", "csv"]},
        }
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "config.json"
        path.write_text(json.dumps(config, indent=1))
        load_config(str(path))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return State(models=[rec], redrawn=redrawn,
                     data={"config": str(path), "out": workdir / "out",
                           "out_parallel": workdir / "out-parallel",
                           "children": workdir / "children", "env": env,
                           "stderr": workdir / "stderr.txt", "peak_rss_kb": 0})

    def _run(self, st: State, argv, env=None):
        """Run one command to its end; keep the largest peak RSS of any
        command, read from that child's own rusage."""
        log = st.data["stderr"]
        t = perf_counter()
        with open(log, "w") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env or st.data["env"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        secs = perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        st.data["peak_rss_kb"] = max(st.data["peak_rss_kb"], usage.ru_maxrss)
        return proc.returncode, log.read_text(), secs

    def job(self, st: State, tracer=None) -> Outcome:
        out = st.data["out"]
        shutil.rmtree(out, ignore_errors=True)
        layers = {"times": {}, "counts": {}}
        for cmd in self.COMMANDS:
            if tracer is None:
                argv = [sys.executable, "-m", "wht.cli", cmd,
                        "--config", st.data["config"], "--out", str(out)]
            else:
                st.data["children"].mkdir(parents=True, exist_ok=True)
                result = st.data["children"] / f"{cmd}.json"
                argv = [sys.executable, str(HERE / "cli_child.py"), cmd,
                        st.data["config"], str(out), str(result)]
            code, stderr, secs = self._run(st, argv)
            if code != 0:
                return Outcome(False, why=f"wht {cmd} exited {code}: "
                                          f"{stderr.strip()[-300:]}")
            layers["times"][f"cli.{cmd}"] = secs
            if tracer is not None:
                child = json.loads(result.read_text())
                for stem, s in child["times"].items():
                    layers["times"][stem] = layers["times"].get(stem, 0.0) + s
                merge_counts(layers["counts"], child["counts"])
        checks = json.loads((out / "verify.json").read_text())["checks"]
        bad = [c["name"] for c in checks if c["status"] != "PASS"]
        if bad or len(checks) != len(KNOWN_TASKS):
            return Outcome(False, why=f"verify checks not PASS: {bad}")
        digest = sha(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
                     for p in sorted(out.iterdir()))
        return Outcome(True, digest, layers=layers)

    def peak_rss_kb(self, st: State) -> int:
        """The largest peak RSS of any `wht` command process."""
        return st.data["peak_rss_kb"]

    def after_run(self, st: State, tracer) -> tuple:
        """Traced runs only, after the timed phase: `wht verify --parallel`
        with one worker per core, timed beside the serial `cli.verify_s`.
        Its report must equal the last serial one byte for byte; a last
        job that failed before writing one is already counted as failed."""
        serial = st.data["out"] / "verify.json"
        if tracer is None or not serial.exists():
            return {}, []
        par = st.data["out_parallel"]
        shutil.rmtree(par, ignore_errors=True)
        env = dict(st.data["env"], WHT_THREADS=str(os.cpu_count() or 1))
        code, stderr, secs = self._run(
            st, [sys.executable, "-m", "wht.cli", "verify", "--config",
                 st.data["config"], "--out", str(par), "--parallel"], env)
        if code != 0:
            return {}, [f"wht verify --parallel exited {code}: {stderr.strip()[-300:]}"]
        if (par / "verify.json").read_bytes() != serial.read_bytes():
            return {}, ["wht verify --parallel report differs from the serial one"]
        return {"cli.verify_parallel_s": secs}, []


def merge_counts(dst: dict, src: dict):
    """Add counters; names ending in `.max` keep the maximum instead."""
    for k, v in src.items():
        dst[k] = max(dst.get(k, v), v) if k.endswith(".max") else dst.get(k, 0) + v


WORKLOADS = {"cli": Cli, "exact-series": ExactSeries, "tr-deep": TrDeep}
