"""Benchmark of the wht engine: one seeded workload per run, a closed loop
with one client, every job's output checked against an independent route.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli,exact-series,tr-deep} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json, with `--trace 1` its per-layer
ones, from a run whose wht functions are wrapped by spans (see spans.py).
Drawn models, output digests and counts are kept in
`.bench_out/<workload>-seed<N>-<source key>.json`, where the key is a digest
of the engine's and the benchmark's sources; a later run of the same
workload, seed and code must reproduce them, or the run reports
`correct: false`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

# one BLAS/OpenMP thread in this process and every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one more set-up in a fresh process, for the setup_s median
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_wht():
    src = ROOT / "src"
    if not (src / "wht" / "__init__.py").is_file():
        sys.exit(f"error: no wht source at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import wht
    if Path(wht.__file__).resolve().parent != src / "wht":
        sys.exit(f"error: imported wht from {wht.__file__}, not from {src}")


def setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def time_metrics(tracer, jobs) -> dict:
    """Mean self time per job of every span stem, plus the set-up phase's."""
    per_job = tracer.self_times()
    out = {}
    for stem in {s for j in per_job.values() for s in j} | set(known_stems()):
        out[f"{stem}_s"] = sum(per_job.get(j, {}).get(stem, 0.0)
                               for j in range(jobs)) / jobs
        out[f"setup.{stem}_s"] = per_job.get("setup", {}).get(stem, 0.0)
    return out


def known_stems():
    from wht.config import KNOWN_TASKS
    from workloads import Cli
    return (list(spans.SPANS) + [f"verify.{t}" for t in KNOWN_TASKS]
            + [f"cli.{c}" for c in Cli.COMMANDS + ("verify_parallel",)])


def source_key() -> str:
    """Digest of the wht and benchmark sources, so that run records are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "wht", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(f"{path.relative_to(ROOT)}\n".encode() + path.read_bytes())
    return h.hexdigest()[:16]


def exact_counts(counts: dict) -> dict:
    """The counters that must repeat exactly: every integer one."""
    return {k: v for k, v in counts.items() if isinstance(v, int)}


def check_record(path: Path, record: dict) -> list:
    """Compare with the record of an earlier run of this workload, seed and
    code, then store what that record lacked.  Returns what differs."""
    old = json.loads(path.read_text()) if path.exists() else {}
    diffs = [k for k in ("models", "digest", "counts")
             if None not in (old.get(k), record.get(k)) and old[k] != record[k]]
    path.parent.mkdir(parents=True, exist_ok=True)
    merged = dict(old)
    for k, v in record.items():
        if merged.get(k) is None:
            merged[k] = v
    path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return diffs


def timed_phase(wl, state, tracer, seconds: float) -> dict:
    """Closed loop, one client: the next job starts when the previous one
    ends, until `seconds` have passed (at least one job)."""
    import workloads
    durations, failed, first_counts, count_diff = [], 0, None, False
    start = perf_counter()
    while True:
        job = len(durations)
        if tracer is not None:
            tracer.set_job(job)
        t = perf_counter()
        try:
            outcome = wl.run_job(state, tracer)
        except Exception as e:  # a job that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            outcome = workloads.Outcome(False, why=f"{type(e).__name__}: {e}")
        durations.append(perf_counter() - t)
        times = outcome.layers.get("times", {})
        parts = ", ".join(f"{k} {v:.3f}" for k, v in times.items()
                          if k.startswith("cli."))
        print(f"job {job}: {durations[-1]:.3f} s" + (f" ({parts})" if parts else ""))
        if tracer is not None:
            for stem, s in times.items():
                tracer.add_time(job, stem, s)
            workloads.merge_counts(tracer.counts[job],
                                   outcome.layers.get("counts", {}))
            counts = exact_counts(tracer.counts[job])
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts and outcome.ok:
                count_diff = True
        if not outcome.ok:
            failed += 1
            print(f"job {job} FAILED: {outcome.why}", file=sys.stderr)
        if perf_counter() - start >= seconds:
            break
    return {"durations": durations, "failed": failed,
            "elapsed": perf_counter() - start,
            "first_counts": first_counts, "count_diff": count_diff}


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    import_wht()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        state = wl.setup(args.seed, workdir)
        setups = [perf_counter() - t0]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        print(f"workload {args.workload} seed {args.seed}: models "
              f"{json.dumps(state.models)}; inputs.redrawn {state.redrawn}")
        if not args.trace:
            setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        res = timed_phase(wl, state, tracer, args.seconds)
        extra, problems = wl.after_run(state, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    durations, failed = res["durations"], res["failed"]
    jobs = len(durations)
    p50 = statistics.median(durations)
    record = {"workload": args.workload, "seed": args.seed,
              "models": state.models, "inputs_redrawn": state.redrawn,
              "digest": state.reference, "counts": res["first_counts"]}
    diffs = check_record(
        OUT / f"{args.workload}-seed{args.seed}-{source_key()}.json", record)
    for d in diffs:
        print(f"determinism: {d} differ from an earlier run of this seed "
              f"and code", file=sys.stderr)
    if res["count_diff"]:
        problems.append("counts differ between jobs of this run")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"jobs {jobs} (failed {failed}), fail_ratio {failed / jobs} ratio; "
          f"job_s.p50 {p50:.4f} s over {jobs} samples; "
          f"set-up samples {[round(s, 4) for s in setups]} s")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        values = {
            "job_s.p50": p50,
            "jobs_per_min": (jobs - failed) / res["elapsed"] * 60.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": wl.peak_rss_kb(state) / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        values = time_metrics(tracer, jobs)
        values.update({n: tracer.counts[0].get(n, 0) for n in spans.COUNTERS})
        values["setup.oracle.table_keys"] = tracer.counts["setup"].get(
            "oracle.table_keys", 0)
        values["trace.job_s.p50"] = p50
        values["inputs.redrawn"] = state.redrawn
        values.update(extra)
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not diffs and not problems,
                      "attempted": jobs,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
