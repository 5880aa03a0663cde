"""Command-line pipeline driver.

Subcommands: `table` (enumeration export), `verify` (all structural checks),
`curve` (solved-system export with ramification data), `tr` (recursion output
and oracle comparison).  Exit codes: 0 success, 1 check failure, 2 bad
configuration, 3 analytic-assumption violation in a required task.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .config import ConfigError, RunConfig, dump_config, load_config
from .model import AssumptionViolation, EllBounds
from .oracle import build_table, wgn_oracle
from .spectral import (
    compute_Z, formal_branchpoints, solve_system, spectral_export,
)
from .toprec import compare_oracle, instantiate_curve, tr_compute
from .verify import run_suites, tr_sample_points

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3


def _outdir(cfg: RunConfig, override):
    d = override or cfg.out_dir
    os.makedirs(d, exist_ok=True)
    return d


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_table(cfg: RunConfig, out: str) -> int:
    bounds = EllBounds(run_max=cfg.run_max, exp_run_max=cfg.exp_run_max)
    table = build_table(cfg.model, cfg.d_max, bounds)
    recs = table.to_records()
    if cfg.connected:
        recs = [r for r in recs if r["connected"]]
    _write_json(os.path.join(out, "table.json"), recs)
    if "csv" in cfg.formats:
        with open(os.path.join(out, "table.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["lambda", "mu", "ell", "ell_exp", "connected",
                         "genus", "count"])
            for r in recs:
                wr.writerow([
                    " ".join(map(str, r["lambda"])),
                    " ".join(map(str, r["mu"])),
                    " ".join(map(str, r["ell"])),
                    "" if r["ell_exp"] is None else r["ell_exp"],
                    int(r["connected"]), r["genus"], r["count"]])
    print(f"table: {len(recs)} records -> {out}")
    return EXIT_OK


def cmd_curve(cfg: RunConfig, out: str) -> int:
    sd = solve_system(cfg.model)
    compute_Z(sd)
    bp = None
    bp_error = None
    try:
        bp = formal_branchpoints(sd, depth=min(5, cfg.model.T))
    except AssumptionViolation as e:
        bp_error = {"clause": e.clause, "detail": str(e)}
    payload = spectral_export(sd, bp)
    if bp_error:
        payload["curve"]["branchpoints_error"] = bp_error
    _write_json(os.path.join(out, "curve.json"), payload)
    if "csv" in cfg.formats and bp is not None:
        t = cfg.toprec_t
        with open(os.path.join(out, "branchpoints.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["i", "re_a", "im_a", "re_b", "im_b"])
            for i, a in enumerate(bp.initial):
                b = bp.value_at(i, t)
                wr.writerow([i, a.real, a.imag, b.real, b.imag])
        _write_xy_slice(cfg, out)
    print(f"curve: exported -> {out}")
    return EXIT_OK


def _write_xy_slice(cfg: RunConfig, out: str):
    """Plot data: (z, X, Y) along a real-z slice; coordinates only."""
    try:
        curve = instantiate_curve(solve_system(cfg.model), cfg.toprec_t)
    except AssumptionViolation:
        return
    scale = min(abs(b) for b in curve.branchpoints)
    with open(os.path.join(out, "xy_slice.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["z", "re_X", "im_X", "re_Y", "im_Y"])
        for k in range(1, 101):
            z = 0.5 * scale * k / 100.0
            x = curve.X(z)
            y = curve.Y(z)
            wr.writerow([z, x.real, x.imag, y.real, y.imag])


def cmd_tr(cfg: RunConfig, out: str) -> int:
    try:
        sd = solve_system(cfg.model)
        curve = instantiate_curve(sd, cfg.toprec_t)
        omega = tr_compute(curve, cfg.g_max, cfg.n_max,
                           depth_margin=cfg.depth_margin)
    except AssumptionViolation as e:
        _write_json(os.path.join(out, "omega.json"),
                    {"skip": {"clause": e.clause, "detail": str(e)}})
        print(f"tr: SKIP ({e})")
        return EXIT_ASSUMPTION
    payload = {
        "t": [curve.t.real, curve.t.imag],
        "branchpoints": [[b.real, b.imag] for b in curve.branchpoints],
        "omega": omega.to_records(),
        "asymmetry": {f"{g},{n}": v for (g, n), v in omega.asymmetry.items()},
    }
    d_max = min(cfg.d_max, 6)
    bounds = EllBounds(run_max=cfg.run_max, exp_run_max=cfg.exp_run_max)
    table = build_table(cfg.model, d_max, bounds)
    targets = [(0, 1), (0, 2)]
    if cfg.n_max >= 3:
        targets.append((0, 3))
    if cfg.g_max >= 1:
        targets.append((1, 1))
    oracles = {gn: wgn_oracle(table, cfg.model, *gn) for gn in targets}
    samples = {gn: tr_sample_points(gn[1]) for gn in targets}
    report = compare_oracle(omega, oracles, curve, samples, tol=cfg.tol)
    payload["comparison"] = report
    _write_json(os.path.join(out, "omega.json"), payload)
    print(f"tr: {'PASS' if report['pass'] else 'FAIL'} -> {out}")
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig, out: str, parallel: bool = False) -> int:
    workers = None
    env = os.environ.get("WHT_THREADS")
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            print(f"config error: WHT_THREADS must be an integer, got {env!r}",
                  file=sys.stderr)
            return EXIT_CONFIG
    results = run_suites(cfg.tasks, cfg, parallel=parallel,
                         max_workers=workers)
    rows = []
    worst = EXIT_OK
    for res in results:
        line = f"[{res.status}] {res.name}"
        if res.status == "SKIP":
            line += f" ({res.details.get('reason', '')})"
        print(line)
        rows.append({"name": res.name, "status": res.status,
                     "details": _clean(res.details)})
        if res.status == "FAIL":
            worst = max(worst, EXIT_CHECK_FAILED)
        elif res.status == "VIOLATION":
            worst = max(worst, EXIT_ASSUMPTION)
    _write_json(os.path.join(out, "verify.json"), {"checks": rows})
    return worst


def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="wht",
        description="weighted Hurwitz engine: tables, curve data, "
                    "verification, topological recursion")
    ap.add_argument("command", choices=["table", "verify", "curve", "tr"])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--parallel", action="store_true")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = _outdir(cfg, args.out)
    with open(os.path.join(out, "config.echo.json"), "w") as fh:
        fh.write(dump_config(cfg))
        fh.write("\n")

    try:
        if args.command == "table":
            return cmd_table(cfg, out)
        if args.command == "curve":
            return cmd_curve(cfg, out)
        if args.command == "tr":
            return cmd_tr(cfg, out)
        return cmd_verify(cfg, out, parallel=args.parallel)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
