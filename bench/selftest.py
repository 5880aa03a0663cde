"""Sensitivity self-test of the benchmark's checks.

Usage, from the root of a checkout:

    python3 bench/selftest.py [workload ...]

For each workload one job runs on the drawn inputs and must pass; then one
job runs against a deliberately wrong reference and must be counted as
failed:

* exact-series: the character route checks a model whose q1 is off by 1/97;
* tr-deep: wgn_oracle reads a model whose q1 is off by 1/97;
* cli: the run's stored artifact digest is replaced by zeros.

It also checks that a run record whose digest differs from an earlier run
of the same seed is flagged.  Exits 0 when every check behaved, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

SEED = 7

CORRUPT = {
    "exact-series": lambda mod, st: st.data.update(
        oracle_a=mod.perturbed(st.data["oracle_a"])),
    "tr-deep": lambda mod, st: st.data.update(
        oracle_params=mod.perturbed(st.data["oracle_params"])),
    "cli": lambda mod, st: setattr(st, "reference", "0" * 64),
}


def sensitivity(name: str) -> bool:
    import workloads
    wl = workloads.WORKLOADS[name]()
    workdir = run.OUT / f"selftest-{name}-{os.getpid()}"
    try:
        st = wl.setup(SEED, workdir)
        good = wl.run_job(st)
        CORRUPT[name](workloads, st)
        bad = wl.run_job(st)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name}: drawn inputs {'pass' if good.ok else 'FAIL: ' + good.why}; "
          f"wrong reference {'counted as failed' if not bad.ok else 'MISSED'}"
          f" ({bad.why})")
    return good.ok and not bad.ok


def record_flagging() -> bool:
    path = run.OUT / f"selftest-record-{os.getpid()}.json"
    try:
        first = run.check_record(path, {"digest": "a" * 64, "counts": {"x": 1}})
        same = run.check_record(path, {"digest": "a" * 64, "counts": {"x": 1}})
        other = run.check_record(path, {"digest": "b" * 64, "counts": {"x": 2}})
    finally:
        path.unlink(missing_ok=True)
    ok = first == [] and same == [] and other == ["digest", "counts"]
    print(f"determinism record: {'differences flagged' if ok else 'MISSED'}")
    return ok


def main(names) -> int:
    run.import_wht()
    results = [sensitivity(n) for n in names or CORRUPT] + [record_flagging()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
