"""Run configuration: parsing, validation, and canonical re-emission.

JSON is the single source of truth; exact rationals travel as strings like
"2/3" so no precision is lost.  Emission is canonical (sorted keys), so
parse -> emit -> parse is the identity and artifacts are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

from .model import EllBounds, ModelParams
from .oracle import enumeration_total
from .toprec import T_CAP


class ConfigError(Exception):
    pass


# the S_8 multiplication table alone would take 40320^2 int32 entries, 6.5 GB
D_MAX = 7


KNOWN_TASKS = (
    "oracle-vs-schur",
    "disk",
    "cylinder",
    "h-color-independence",
    "artificial-poles",
    "set-to-zero",
    "insertion-identity",
    "tr-vs-oracle",
    "critical-values",
    "exp-extension",
)


@dataclass
class RunConfig:
    model: ModelParams
    d_max: int = 3
    connected: bool = True
    run_max: int = 6
    exp_run_max: int | None = None
    toprec_t: complex = 1e-3
    g_max: int = 1
    n_max: int = 3
    tol: float = 1e-6
    depth_margin: int = 4
    tasks: tuple = KNOWN_TASKS
    out_dir: str = "out"
    formats: tuple = ("json",)


def _scalar_in(v, key):
    """Weights are exact: "2/3"-style strings, integers, or integral floats."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return Fraction(int(v))
    raise ConfigError(f"model.{key} needs rational values "
                      f"(an integer or a string like \"2/3\"), got {v!r}")


def parse_config(data: dict) -> RunConfig:
    try:
        m = data["model"]
        # rationals are the only scalar kind; echoes of older runs say "exact"
        mode = m.get("scalar_mode", "exact")
        if mode != "exact":
            raise ConfigError(f"model.scalar_mode must be \"exact\", got {mode!r}")
        params = ModelParams(
            m=int(m["m"]), r=int(m["r"]),
            u=tuple(_scalar_in(x, "u") for x in m["u"]),
            p=tuple(_scalar_in(x, "p") for x in m["p"]),
            q=tuple(_scalar_in(x, "q") for x in m["q"]),
            T=int(m.get("T", data.get("spectral", {}).get("T", 4))),
            u_exp=(_scalar_in(m["u_exp"], "u_exp")
                   if m.get("u_exp") is not None else None),
            allow_zero_u=bool(m.get("allow_zero_u", False)),
        )
        if "spectral" in data and "T" in data["spectral"]:
            params = replace(params, T=int(data["spectral"]["T"]))
        oracle = data.get("oracle", {})
        toprec = data.get("toprec", {})
        tv = toprec.get("t_value", [1e-3, 0.0])
        tasks = tuple(data.get("tasks", KNOWN_TASKS))
        for t in tasks:
            if t not in KNOWN_TASKS:
                raise ConfigError(f"unknown task {t!r}")
        output = data.get("output", {})
        formats = tuple(output.get("formats", ["json"]))
        for f in formats:
            if f not in ("json", "csv"):
                raise ConfigError(f"unknown format {f!r}")
        cfg = RunConfig(
            model=params,
            d_max=int(oracle.get("d_max", 3)),
            connected=bool(oracle.get("connected", True)),
            run_max=int(oracle.get("run_max", 6)),
            exp_run_max=(int(oracle["exp_run_max"])
                         if oracle.get("exp_run_max") is not None else None),
            toprec_t=complex(tv[0], tv[1]),
            g_max=int(toprec.get("g_max", 1)),
            n_max=int(toprec.get("n_max", 3)),
            tol=float(toprec.get("tol", 1e-6)),
            depth_margin=int(toprec.get("depth_margin", 4)),
            tasks=tasks,
            out_dir=str(output.get("dir", "out")),
            formats=formats,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    _validate_ranges(cfg)
    return cfg


def _validate_ranges(cfg: RunConfig):
    if cfg.d_max < 1:
        raise ConfigError(f"oracle.d_max must be in 1..{D_MAX}")
    if cfg.d_max > D_MAX:
        n = factorial(cfg.d_max)
        raise ConfigError(
            f"oracle.d_max must be in 1..{D_MAX}: the S_{cfg.d_max} "
            f"multiplication table alone takes {n}^2 x 4 B = "
            f"{4 * n * n / 1e9:.2g} GB")
    if cfg.run_max < 0 or (cfg.exp_run_max is not None and cfg.exp_run_max < 0):
        raise ConfigError("run bounds must be nonnegative")
    if not (0 <= cfg.g_max <= 3 and 1 <= cfg.n_max <= 5):
        raise ConfigError("toprec.g_max in 0..3 and n_max in 1..5")
    if 2 * cfg.g_max - 2 + cfg.n_max < 1:
        raise ConfigError(
            f"toprec.g_max = {cfg.g_max} and toprec.n_max = {cfg.n_max} leave "
            f"no (g, n) with 2g - 2 + n >= 1 for the recursion")
    if cfg.tol <= 0:
        raise ConfigError("toprec.tol must be positive")
    if cfg.depth_margin < 0:
        # a shallower expansion than the pole orders need: tr_compute stops
        # with a pole depth overflow
        raise ConfigError("toprec.depth_margin must be nonnegative")
    if abs(cfg.toprec_t) > T_CAP:
        raise ConfigError(f"toprec.t_value must have |t| <= {T_CAP}, "
                          f"got |t| = {abs(cfg.toprec_t)}")
    if cfg.model.has_exp and cfg.exp_run_max is None:
        raise ConfigError("exponential models need oracle.exp_run_max")
    # the largest size has the most tuples, and no int64 count can exceed
    # the total.  From d = 3 on, runs of length 63 alone reach 2^63, so
    # longer caps need not be counted.
    caps = [cfg.run_max, cfg.exp_run_max]
    if cfg.d_max >= 3:
        caps = [None if c is None else min(c, 63) for c in caps]
    total = enumeration_total(cfg.d_max, cfg.model, EllBounds(*caps))
    if total >= 2 ** 63:
        grows = [key for key, on in (("oracle.run_max", cfg.model.r),
                                     ("oracle.exp_run_max", cfg.model.has_exp))
                 if on] or ["oracle.d_max"]
        raise ConfigError(
            f"the enumeration at d = {cfg.d_max} counts at least "
            f"2^{total.bit_length() - 1} tuples, past the int64 range (2^63) "
            f"of its counts; lower {' or '.join(grows)}")


def emit_config(cfg: RunConfig) -> dict:
    m = cfg.model
    out = {
        "model": {
            "m": m.m, "r": m.r,
            "u": [str(x) for x in m.u],
            "p": [str(x) for x in m.p],
            "q": [str(x) for x in m.q],
            "T": m.T,
            "u_exp": str(m.u_exp) if m.u_exp is not None else None,
            "allow_zero_u": m.allow_zero_u,
        },
        "oracle": {
            "d_max": cfg.d_max, "connected": cfg.connected,
            "run_max": cfg.run_max, "exp_run_max": cfg.exp_run_max,
        },
        "spectral": {"T": m.T},
        "toprec": {
            "t_value": [cfg.toprec_t.real, cfg.toprec_t.imag],
            "g_max": cfg.g_max, "n_max": cfg.n_max, "tol": cfg.tol,
            "depth_margin": cfg.depth_margin,
        },
        "tasks": list(cfg.tasks),
        "output": {"dir": cfg.out_dir, "formats": list(cfg.formats)},
    }
    return out


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return parse_config(data)


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(emit_config(cfg), indent=1, sort_keys=True)
